package pgwire

import (
	"testing"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/stats"
)

// TestLoadSmoke boots an in-process server and runs a short mixed-traffic
// load: the smoke gate for make ci. Zero protocol errors is the hard
// assertion — coded SQLSTATE errors (including admission rejections) are
// tolerated outcomes, transport/framing failures are not.
func TestLoadSmoke(t *testing.T) {
	eng := sqlexec.NewEngine()
	obs := stats.NewRegistry()
	srv, err := Serve(EngineBackend{Engine: eng}, Config{Addr: "127.0.0.1:0", Obs: obs})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	rep, err := RunLoad(LoadConfig{
		Addr:     srv.Addr().String(),
		Conns:    24,
		Duration: 1500 * time.Millisecond,
		SeedRows: 2000,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Logf("\n%s", rep)

	if rep.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", rep.ProtocolErrors)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d query errors", rep.Errors)
	}
	if rep.Queries == 0 {
		t.Fatal("no queries completed")
	}
	for _, op := range []string{OpPoint, OpAgg, OpInsert} {
		s := rep.PerOp[op]
		if s == nil || s.Count == 0 {
			t.Fatalf("op %s never ran", op)
		}
		if s.P50 <= 0 || s.P999 < s.P50 {
			t.Fatalf("op %s quantiles implausible: p50=%f p999=%f", op, s.P50, s.P999)
		}
	}

	// The latency quantiles must be visible through the stats pipeline too:
	// the report and a Prometheus scrape can never disagree.
	snap := rep.Obs.Snapshot()
	if got := snap.CounterTotal("loadgen_queries_total"); got != rep.Queries {
		t.Fatalf("stats pipeline says %d queries, report says %d", got, rep.Queries)
	}

	// Server-side metrics observed the same traffic.
	ssnap := obs.Snapshot()
	if ok, _ := ssnap.Counter("pgwire_queries_total", "result=ok"); ok == 0 {
		t.Fatal("server counted no successful queries")
	}
	if conns, _ := ssnap.Counter("pgwire_connections_total"); conns < 24 {
		t.Fatalf("server counted %d connections, want >= 24", conns)
	}
}
