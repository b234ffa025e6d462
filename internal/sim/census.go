//go:build census

package sim

import (
	"reflect"
	"strings"
)

// census counts the events an engine fires by handler type. It exists only
// in a build with the census tag, so timed runs pay nothing for it.
type census map[reflect.Type]uint64

func (e *Engine) count(h Handler) {
	if e.census == nil {
		e.census = census{}
	}
	e.census[reflect.TypeOf(h)]++
}

// Census returns the number of events the engine has fired, by the
// handler's type name as "package.Type" ("zns.writeOp", "sim.fnHandler").
// Without the census build tag it returns nil.
func (e *Engine) Census() map[string]uint64 {
	m := make(map[string]uint64, len(e.census))
	for t, n := range e.census {
		m[strings.TrimPrefix(t.String(), "*")] += n
	}
	return m
}
