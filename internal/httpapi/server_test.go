package httpapi

import (
	"testing"
	"time"

	"dynppr"
)

// TestAdmissionTimeoutOneDefault pins the one admission default: a handler
// built directly and the handler a Server builds both wait 5 s for a
// pipeline slot — half the write timeout, so a write sheds with 429 before
// its connection's write deadline.
func TestAdmissionTimeoutOneDefault(t *testing.T) {
	g := dynppr.GraphFromEdges([]dynppr.Edge{{U: 0, V: 1}})
	svc, err := dynppr.NewService(g, []dynppr.VertexID{1}, dynppr.DefaultServiceOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	direct := NewHandler(svc, HandlerOptions{}).opts.AdmissionTimeout
	srv := NewServer(svc, ServerOptions{})
	served := srv.Handler().opts.AdmissionTimeout
	if direct != 5*time.Second || served != direct {
		t.Fatalf("admission timeout: NewHandler %v, NewServer %v, want 5s both", direct, served)
	}
	if srv.http.WriteTimeout != 2*direct {
		t.Fatalf("write timeout %v is not twice the admission timeout %v", srv.http.WriteTimeout, direct)
	}
}
