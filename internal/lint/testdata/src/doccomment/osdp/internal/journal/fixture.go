// Package journal fixture: the durability plane's exported surface
// needs godoc-convention doc comments.
package journal

// Journal is documented and starts with its own name.
type Journal struct{}

// Append is documented.
func (*Journal) Append() {}

func (*Journal) Wait() {} // want `exported Wait has no doc comment`

// Blocks until closed, which breaks the convention.
func (*Journal) Close() {} // want `doc comment for Close does not start with`
