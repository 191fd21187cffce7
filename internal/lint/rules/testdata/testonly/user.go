// Package testonlydata is the root of the testonly fixture: it uses
// lib from non-test code.
package testonlydata

import (
	"context"

	"repro/internal/testonlydata/lib"
)

// Sink is implemented by lib.Buf.
type Sink interface{ Put(v int) }

// Exchange is implemented by lib.Rec through the instance
// Exchange[int] that handle's type argument makes.
type Exchange[E any] interface{ Record(e E) string }

func handle[E any](x Exchange[E], e E) string { return x.Record(e) }

func use() {
	lib.Used()
	_ = lib.Analyze()
	_ = lib.SolveContext(context.TODO())
	var s Sink = &lib.Buf{}
	s.Put(1)
	_ = handle(lib.Rec{}, 1)
}
