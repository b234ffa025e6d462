//go:build !census

package sim

// census is empty without the census build tag, and count compiles to
// nothing: see census.go.
type census struct{}

func (e *Engine) count(Handler) {}

// Census returns the number of events the engine has fired by handler
// type in a build with the census tag, and nil without it.
func (e *Engine) Census() map[string]uint64 { return nil }
