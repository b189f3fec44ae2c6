package corpus

import (
	"context"
	"reflect"
	"testing"

	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/monitor"
	"goldmine/internal/mutate"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// TestReduceCleanLaneMatchesInterpreter checks the oracle's coverage half:
// the activations measure takes from the campaign's fault-free lane must be,
// element for element and in order, those of a scalar monitor replaying the
// stimulus on the interpreter, and adding the clean lane must leave every
// kill as the plain campaign finds it.
func TestReduceCleanLaneMatchesInterpreter(t *testing.T) {
	for _, name := range []string{"arbiter4", "decode", "b17"} {
		b, err := designs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Window = b.Window
		eng, err := core.NewEngine(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seed sim.Stimulus
		if b.Directed != nil {
			seed = b.Directed()
		}
		res, err := eng.MineAll(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		asserts := res.Assertions()
		all := mutate.AllFaults(d)
		// The clean lane takes a spare lane of the last chunk, or a chunk
		// of its own when there are no faults or 64 fill theirs.
		sets := [][]mutate.Fault{all, nil}
		if len(all) >= 64 {
			sets = append(sets, all[:64])
		}
		for _, oracleSeed := range []int64{1, 2} {
			stim := stimgen.Random(d, 256, oracleSeed, 2)
			for _, faults := range sets {
				elems, err := measure(d, asserts, faults, stim, nil)
				if err != nil {
					t.Fatal(err)
				}
				elem := coverElem(asserts, len(faults), len(stim))
				want := make([][]int, len(asserts))
				mon, err := monitor.New(d, asserts)
				if err != nil {
					t.Fatal(err)
				}
				mon.OnActivation = func(ai, cycle int) { want[ai] = append(want[ai], elem(ai, cycle)) }
				if err := mon.RunSuite([]sim.Stimulus{stim}); err != nil {
					t.Fatal(err)
				}
				dets, err := mutate.SimCampaign(d, asserts, faults, stim, nil)
				if err != nil {
					t.Fatal(err)
				}
				kills := make([][]int, len(asserts))
				for fi, det := range dets {
					for _, ai := range det.Detecting {
						kills[ai] = append(kills[ai], fi)
					}
				}
				for ai, els := range elems {
					var cover, killed []int
					for _, el := range els {
						if el >= len(faults) {
							cover = append(cover, el)
						} else {
							killed = append(killed, el)
						}
					}
					if !reflect.DeepEqual(cover, want[ai]) {
						t.Fatalf("%s seed %d, %d faults, assertion %d: clean lane covers %v, interpreter replay %v",
							name, oracleSeed, len(faults), ai, cover, want[ai])
					}
					if !reflect.DeepEqual(killed, kills[ai]) {
						t.Fatalf("%s seed %d, %d faults, assertion %d: kills %v with the clean lane, %v without",
							name, oracleSeed, len(faults), ai, killed, kills[ai])
					}
				}
			}
		}
	}
}

// TestReduceClusteringMemoFollowsTheCorpus: Reduce shares one clustering per
// unchanged corpus, and an entry landing by Ingest or by the store's load
// path is seen by the next Reduce, also while Reduces run concurrently.
func TestReduceClusteringMemoFollowsTheCorpus(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("r", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	opts := Options{Cycles: 32}
	r1, err := Reduce(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, cl := c.designClusters(d); len(cl) != r1.Clusters {
		t.Fatalf("memo holds %d clusters, Reduce found %d", len(cl), r1.Clusters)
	}
	c.Ingest("r", d, []Mined{{A: rstReq0ImpliesNoGnt0(), Status: "proved"}})
	r2, err := Reduce(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != 1 || r2.Total != 2 || r2.Collapsed != 1 {
		t.Fatalf("totals %d then %d (collapsed %d), want 1 then 2 (1)", r1.Total, r2.Total, r2.Collapsed)
	}
	e := &Entry{NS: Namespace(d), Design: d.Name, A: noReq0ImpliesNoGnt0(), Status: "proved", Seen: 1}
	e.Key = e.A.CanonicalKey()

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := Reduce(d, c, opts)
			done <- err
		}()
	}
	if !c.add(e) {
		t.Fatal("entry not new")
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r3, err := Reduce(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Total != 3 {
		t.Fatalf("Reduce after add sees %d entries, want 3", r3.Total)
	}
}
