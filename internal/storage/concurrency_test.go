package storage

import (
	"fmt"
	"sync"
	"testing"

	"gluenail/internal/term"
)

// stressRelation builds an nRows relation with nRows/keysPerCol distinct
// values in column 0.
func stressRelation(nRows, keys int, policy IndexPolicy, stats *Stats) *Relation {
	rel := NewRelation(term.NewString("r"), 2, policy, stats)
	for i := 0; i < nRows; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i % keys)), term.NewInt(int64(i))})
	}
	return rel
}

// TestConcurrentLookupDuringIndexBuild hammers one adaptive relation with
// concurrent Lookups and Scans so the adaptive index build triggers while
// other readers are mid-lookup. Run under -race, this is the regression
// test for the readers-OR-writer concurrency model: every reader must see
// either the scan path or a fully published index, never a partial one.
func TestConcurrentLookupDuringIndexBuild(t *testing.T) {
	const (
		nRows      = 4000
		keys       = 100
		goroutines = 16
		lookups    = 200
	)
	for _, policy := range []IndexPolicy{IndexAdaptive, IndexAlways, IndexNever} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			stats := &Stats{}
			rel := stressRelation(nRows, keys, policy, stats)
			perKey := nRows / keys
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < lookups; i++ {
						k := (g*31 + i) % keys
						key := term.Tuple{term.NewInt(int64(k)), {}}
						got := 0
						rel.Lookup(0b01, key, func(u term.Tuple) bool {
							if u[0].Int() != int64(k) {
								errs <- fmt.Errorf("lookup %d yielded key %d", k, u[0].Int())
								return false
							}
							got++
							return true
						})
						if got != perKey {
							errs <- fmt.Errorf("lookup %d returned %d rows, want %d", k, got, perKey)
							return
						}
						if i%16 == 0 {
							n := 0
							rel.Scan(func(term.Tuple) bool { n++; return true })
							if n != nRows {
								errs <- fmt.Errorf("scan saw %d rows, want %d", n, nRows)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if policy == IndexNever && stats.IndexBuilds != 0 {
				t.Fatalf("IndexNever built %d indexes", stats.IndexBuilds)
			}
			if policy != IndexNever && stats.IndexBuilds > 1 {
				t.Fatalf("one mask was indexed %d times; the per-mask build guard must run once",
					stats.IndexBuilds)
			}
		})
	}
}

// warmIndex runs the adaptive policy's build cost in lookups on mask, so
// the index exists when it returns.
func warmIndex(rel Rel, mask uint32, key term.Tuple) {
	for i := 0; i < adaptiveFactor; i++ {
		rel.Lookup(mask, key, func(term.Tuple) bool { return true })
	}
}

// TestAdaptiveCreditAtomic hammers the adaptive credit counter itself: many
// goroutines race single Lookups on a cold mask so the per-mask atomic
// counter takes every increment concurrently. Exactly one index build must
// result, and no credit may be lost — with adaptiveFactor scans' worth of
// credit outstanding the index must exist afterwards. Run under -race this
// is the regression test for the lock-free credit path.
func TestAdaptiveCreditAtomic(t *testing.T) {
	const goroutines = 32
	for round := 0; round < 20; round++ {
		stats := &Stats{}
		rel := stressRelation(500, 25, IndexAdaptive, stats)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(goroutines)
		done.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				key := term.Tuple{term.NewInt(int64(g % 25)), {}}
				rel.Lookup(0b01, key, func(term.Tuple) bool { return true })
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if stats.IndexBuilds != 1 {
			t.Fatalf("round %d: IndexBuilds = %d, want exactly 1", round, stats.IndexBuilds)
		}
		if !rel.HasIndex(0b01) {
			t.Fatalf("round %d: index missing after %d concurrent lookups", round, goroutines)
		}
	}
}

// TestAdaptiveCreditNoLoss races exactly adaptiveFactor single lookups on
// a cold mask: if any concurrent increment were lost, the accumulated
// credit would fall short and no index would be built.
func TestAdaptiveCreditNoLoss(t *testing.T) {
	for round := 0; round < 200; round++ {
		rel := stressRelation(200, 10, IndexAdaptive, &Stats{})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < adaptiveFactor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rel.Lookup(0b01, term.Tuple{term.NewInt(0), {}}, func(term.Tuple) bool { return true })
			}()
		}
		close(start)
		wg.Wait()
		if !rel.HasIndex(0b01) {
			t.Fatalf("round %d: %d racing announcements lost credit; index not built",
				round, adaptiveFactor)
		}
	}
}
