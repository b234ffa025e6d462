package core

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/zns"
)

// wbsync submits one pooled, refcounted payload through WriteBuf and
// drains the engine. The single reference Get returned transfers to the
// engine; the workload keeps nothing.
func wbsync(t *testing.T, eng *sim.Engine, c *Core, lba int64, n int, stamp byte) {
	t.Helper()
	b := c.pool.Get(n*c.blockSize, 0)
	fill := b.Bytes()
	for i := range fill {
		fill[i] = stamp
	}
	var res blockdev.WriteResult
	ok := false
	c.WriteBuf(lba, n, b, func(r blockdev.WriteResult) { res = r; ok = true })
	eng.Run()
	if !ok {
		t.Fatalf("WriteBuf(%d, %d) did not complete", lba, n)
	}
	if res.Err != nil {
		t.Fatalf("WriteBuf(%d, %d): %v", lba, n, res.Err)
	}
}

func totalBufCopied(devs []*zns.Device) uint64 {
	var t uint64
	for _, d := range devs {
		t += d.Stats().BufCopiedBytes
	}
	return t
}

// TestZeroCopyUserDataPath is the structural zero-copy gate. It runs the
// identical steady-state full-stripe workload twice — once with
// caller-owned []byte payloads (the device must defensively copy every
// user block at setData) and once with refcounted pooled payloads (the
// copy becomes a refcount hold) — and asserts the difference in the flash
// models' BufCopiedBytes is exactly the user payload volume. Parity is
// generated internally and still copied on both runs (partial parity
// mid-stripe plus the final issue at seal), so the differential form pins
// user-data copy elimination without depending on parity cadence.
func TestZeroCopyUserDataPath(t *testing.T) {
	const stripes = 64
	run := func(pooled bool) (userBytes, copied uint64, c *Core, devs []*zns.Device, eng *sim.Engine) {
		eng, c, devs = newTestCore(t, func(cfg *Config, dcfgs *[]zns.Config) {
			cfg.MaxBatchBlocks = 1 // no gather: payloads pass through by reference
			for i := range *dcfgs {
				(*dcfgs)[i].StoreData = true
			}
		})
		k := c.nData
		span := c.Blocks() / 2
		for lba := int64(0); lba+int64(k) <= span; lba += int64(k) {
			mustWrite(t, eng, c, lba, k, nil)
		}
		before := totalBufCopied(devs)
		lba := int64(0)
		for i := 0; i < stripes; i++ {
			if pooled {
				wbsync(t, eng, c, lba, k, byte(lba+1))
			} else {
				data := make([]byte, k*c.blockSize)
				for j := range data {
					data[j] = byte(lba + 1)
				}
				if res := blockdev.WriteSync(eng, c, lba, k, data); res.Err != nil {
					t.Fatalf("Write(%d): %v", lba, res.Err)
				}
			}
			lba += int64(k)
			if lba+int64(k) > span {
				lba = 0
			}
		}
		userBytes = uint64(stripes) * uint64(k) * uint64(c.blockSize)
		copied = totalBufCopied(devs) - before
		return
	}

	_, copiedPlain, _, _, _ := run(false)
	userBytes, copiedPooled, c, _, eng := run(true)
	if copiedPlain-copiedPooled != userBytes {
		t.Fatalf("pooled run eliminated %d copied bytes, want exactly the user volume %d (plain %d, pooled %d)",
			copiedPlain-copiedPooled, userBytes, copiedPlain, copiedPooled)
	}

	// The borrowed bytes must be the ones the flash retains: read one of
	// the stamped stripes back and compare.
	checkLBA := int64(0)
	var rres blockdev.ReadResult
	rok := false
	c.Read(checkLBA, 1, func(r blockdev.ReadResult) { rres = r; rok = true })
	eng.Run()
	if !rok || rres.Err != nil {
		t.Fatalf("readback: ok=%v err=%v", rok, rres.Err)
	}
	want := byte(checkLBA + 1)
	for i, v := range rres.Data {
		if v != want {
			t.Fatalf("readback byte %d = %#x, want %#x: zero-copy path lost payload content", i, v, want)
		}
	}
}

// TestZeroCopyNoLeaks drains a pooled-payload run and checks every
// refcounted buffer came home: Live()==0 means each transferred
// reference was released exactly once across the engine, driver queue,
// and flash-model buffer — on success, retry, and harden paths alike.
// The records that carried them must be home too: every write, chunk and
// batch record on its free list, stripe records and SMT entries out only
// for the stripes still open or mapped.
func TestZeroCopyNoLeaks(t *testing.T) {
	eng, c, _ := newTestCore(t, func(cfg *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].StoreData = false
		}
	})
	c.pool.SetPoison(true)
	k := c.nData
	span := c.Blocks() / 4
	lba := int64(0)
	// Mixed sizes: full stripes, sub-chunk in-place updates, unaligned
	// spans — every write-path branch moves references around.
	sizes := []int{k, 1, 2*k + 1, k - 1, k}
	for i := 0; i < 200; i++ {
		n := sizes[i%len(sizes)]
		if lba+int64(n) > span {
			lba = 0
		}
		wbsync(t, eng, c, lba, n, byte(i))
		lba += int64(n)
	}
	c.Flush()
	eng.Run()
	if live := c.pool.Live(); live != 0 {
		t.Fatalf("%d refcounted buffers still held after drain: a layer is leaking references", live)
	}
	assertNoStrayRecords(t, c)
}
