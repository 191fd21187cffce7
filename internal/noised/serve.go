package noised

import (
	"context"
	"log"
	"net"
)

// Serve accepts connections on ln until ctx is canceled, then drains
// gracefully (see Front.Serve): in-flight streams run to completion
// within DrainTimeout, and the session's warm state is saved once the
// drain is over.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	err := s.front.Serve(ctx, ln, s.mux)
	if s.Draining() {
		s.saveWarmLogged()
	}
	return err
}

// saveWarmLogged persists the session's warm state at shutdown; a save
// failure costs the next process its warm start, not this drain.
func (s *Server) saveWarmLogged() {
	if s.store == nil {
		return
	}
	if err := s.SaveWarm(); err != nil {
		log.Printf("warm store save failed: %v", err)
		return
	}
	log.Printf("warm store saved to %s", s.store.Dir())
}
