package noisegw

import (
	"context"
	"net"
)

// Serve accepts connections on ln until ctx is canceled, then drains
// gracefully like a replica (see noised.Front.Serve): new analyses are
// refused with Retry-After while in-flight merges run to completion
// within DrainTimeout. The replica probe loop runs for the gateway's
// lifetime under the same ctx.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	probeCtx, probeStop := context.WithCancel(ctx)
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		g.set.probeLoop(probeCtx)
	}()
	defer func() {
		probeStop()
		<-probeDone
	}()
	return g.front.Serve(ctx, ln, g.mux)
}
