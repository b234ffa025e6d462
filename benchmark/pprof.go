package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto): just enough to get each sample's count and its stack
// of function names, leaf first. It reads these fields and skips the rest:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id, 2 value
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (index into string_table)

// stackSample is one profile sample: how many times the stack was seen.
type stackSample struct {
	count int64
	funcs []string // leaf first, inlined frames expanded
}

// pbReader walks protobuf wire format.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = fmt.Errorf("varint overflow")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. ok is false at the end or on an error.
func (r *pbReader) next() (field int, v uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, nil, false
	}
	key := r.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v = r.varint()
	case 1:
		r.skip(8)
	case 2:
		n := int(r.varint())
		if r.err == nil && n > len(r.b) {
			r.err = io.ErrUnexpectedEOF
		}
		if r.err == nil {
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		r.skip(4)
	default:
		r.err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return field, v, data, r.err == nil
}

func (r *pbReader) skip(n int) {
	if n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// parseProfile decodes one gzipped profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var samples []rawSample
	locLines := map[uint64][]uint64{} // location id -> function ids, leaf-most first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	top := pbReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // sample
			var s rawSample
			r := pbReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, r.err = repeated(s.locs, v, d)
				case 2:
					s.values, r.err = repeated(s.values, v, d)
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines []uint64
			r := pbReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					lr := pbReader{b: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							lines = append(lines, lv)
						}
					}
					if lr.err != nil {
						return nil, lr.err
					}
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			locLines[id] = lines
		case 5: // function
			var id, name uint64
			r := pbReader{b: data}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, top.err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostLayers are the hostshare.* buckets. A sample is charged to the
// innermost frame that belongs to one of them, so runtime work (malloc,
// map access, copying) is billed to the layer that asked for it; a sample
// with no such frame is the collector's and the scheduler's own.
var hostLayers = []string{"sim", "nvme", "zns", "core", "ghostcache", "erasure", "buf", "volume",
	"baselines", "metrics_obs", "benchmark", "gc_background"}

// layerOfFunc maps a function to its hostshare bucket, "" for functions of
// no named layer (runtime, standard library, and the repository's glue
// packages, which are charged to whichever layer called them).
func layerOfFunc(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "biza/benchmark.") {
		return "benchmark"
	}
	rest, ok := strings.CutPrefix(fn, "biza/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "sim", "nvme", "zns", "core", "ghostcache", "erasure", "buf", "volume":
		return pkg
	case "raizn", "dmzap", "mdraid", "ftl", "zapraid":
		return "baselines"
	case "metrics", "obs":
		return "metrics_obs"
	}
	return ""
}

// hostRuntime are the hostrt.* classes with the runtime entry points that
// mark them.
var hostRuntime = []struct {
	class string
	marks []string
}{
	{"gc", []string{"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.scanobject",
		"runtime.scanblock", "runtime.greyobject", "runtime.markroot", "runtime.bgsweep", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime.(*wbBuf)",
		"runtime.findObject", "runtime.markBits", "runtime.(*mspan).markBitsForIndex", "runtime.scanstack"}},
	{"malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc",
		"runtime.nextFreeFast", "runtime.(*mspan).nextFreeIndex", "runtime.makemap", "runtime.makechan"}},
	{"map", []string{"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete", "runtime.mapiter",
		"runtime.mapclear", "internal/runtime/maps."}},
	{"memmove", []string{"runtime.memmove"}},
}

func isRuntimeFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "internal/abi.") ||
		strings.HasPrefix(fn, "internal/cpu.") || strings.HasPrefix(fn, "internal/bytealg.")
}

// runtimeClassOf classifies a sample by its innermost marked runtime
// frame, looking no further out than the runtime's own frames.
func runtimeClassOf(funcs []string) string {
	for _, fn := range funcs {
		if !isRuntimeFunc(fn) {
			return ""
		}
		for _, c := range hostRuntime {
			for _, m := range c.marks {
				if strings.HasPrefix(fn, m) {
					return c.class
				}
			}
		}
	}
	return ""
}

// foldProfiles charges every sample of the profiles to a layer and to a
// runtime class and returns both as shares of all samples.
func foldProfiles(profiles []*bytes.Buffer) (layers, rt map[string]float64, samples int64, err error) {
	layers, rt = map[string]float64{}, map[string]float64{}
	for _, l := range hostLayers {
		layers[l] = 0
	}
	for _, c := range hostRuntime {
		rt[c.class] = 0
	}
	for _, p := range profiles {
		ss, err := parseProfile(p.Bytes())
		if err != nil {
			return nil, nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		for _, s := range ss {
			samples += s.count
			layer := "gc_background"
			for _, fn := range s.funcs {
				if l := layerOfFunc(fn); l != "" {
					layer = l
					break
				}
			}
			layers[layer] += float64(s.count)
			if c := runtimeClassOf(s.funcs); c != "" {
				rt[c] += float64(s.count)
			}
		}
	}
	if samples == 0 {
		return nil, nil, 0, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range layers {
		layers[k] /= float64(samples)
	}
	for k := range rt {
		rt[k] /= float64(samples)
	}
	return layers, rt, samples, nil
}
