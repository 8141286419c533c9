package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/columnstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// tableContent returns the multiset of (id, v) pairs currently live.
func tableContent(tab *columnstore.Table, ts uint64) map[string]int {
	snap := tab.Snapshot(ts)
	out := make(map[string]int)
	for pos := 0; pos < snap.NumRows(); pos++ {
		if !snap.Visible(pos) {
			continue
		}
		out[fmt.Sprintf("%d|%d", snap.Get(0, pos).AsInt(), snap.Get(1, pos).AsInt())]++
	}
	return out
}

// TestRecoveryWithBackgroundMerges is the WAL-ordering regression trap for
// the group-commit pipeline: background merges renumber positions, and
// replayed deletes apply by logged position — so merge records must land
// in the log in true execution order relative to commit batches. Run
// concurrent ingest/updates with a logging background merger, then reopen
// the store and require bit-identical live content.
func TestRecoveryWithBackgroundMerges(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	tab := columnstore.NewTable("ev", columnstore.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "v", Kind: value.KindInt},
	})
	s.Mgr.Register(tab)
	// Checkpoint the empty table so reopen knows the schema and replays
	// the whole commit/merge stream from the log.
	if err := s.Checkpoint(map[string]*columnstore.Table{"ev": tab}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
		for i := 0; i < 200; i++ {
			if err := tx.Insert("ev", value.Row{value.Int(int64(i)), value.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	merger := s.StartMerger(32, time.Millisecond)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			// Keep committing past the first 100 until a merge has landed
			// mid-ingest: a fast run can otherwise finish before the
			// merger's first tick and never exercise the ordering.
			for i := 0; i < 100 || (merger.Merges() == 0 && i < 100_000); i++ {
				_, err := s.Mgr.RunInTxn(func(tx *txn.Txn) error {
					if rng.Intn(3) == 0 {
						// Update a live row found through the txn snapshot.
						v, err := tx.View("ev")
						if err != nil {
							return err
						}
						for try := 0; try < 8; try++ {
							pos := rng.Intn(v.NumRows())
							if !v.Visible(pos) {
								continue
							}
							id := v.Get(0, pos).AsInt()
							return tx.Update("ev", pos, value.Row{value.Int(id), value.Int(v.Get(1, pos).AsInt() + 1)})
						}
						return nil
					}
					return tx.Insert("ev", value.Row{value.Int(int64(1_000_000 + w*100_000 + i)), value.Int(0)})
				})
				if err != nil && !errors.Is(err, txn.ErrConflict) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	merger.Stop()

	if merger.Merges() == 0 {
		t.Fatal("background merger never fired; ordering was not exercised")
	}
	want := tableContent(tab, s.Mgr.Now())
	if err := s.Log.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Log.Close()
	tab2, ok := s2.Mgr.Table("ev")
	if !ok {
		t.Fatal("table ev not recovered")
	}
	got := tableContent(tab2, s2.Mgr.Now())
	if len(got) != len(want) {
		t.Fatalf("recovered %d distinct rows, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %s: recovered count %d, want %d", k, got[k], n)
		}
	}
}
