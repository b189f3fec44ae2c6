// Semantic clustering: corpus entries group by the cone-of-influence
// signature of the signals they reference — two assertions with the same
// signature observe the same slice of the design's logic — and within a
// cluster, entries subsumed by a more general proven entry are collapsed
// away. The collapse is lossless for the ranking oracle's two measures: if a
// subsumes b then a's antecedent is a subset of b's, so every window where b
// activates also activates a (coverage), and every fault lane where b
// violates also violates a (kills). Dropping b therefore never shrinks the
// corpus's measurable contribution.
package corpus

import (
	"sort"
	"strings"

	"goldmine/internal/assertion"
	"goldmine/internal/cone"
	"goldmine/internal/rtl"
)

// Cluster is one cone-signature group of corpus entries.
type Cluster struct {
	// Signature is the canonical cone signature (cone.Signature) shared by
	// every entry in the cluster.
	Signature string
	// Entries is the full membership, sorted by key.
	Entries []*Entry
	// Survivors is the membership after intra-cluster subsumption collapse,
	// sorted most-general-first (ascending antecedent size, then key).
	Survivors []*Entry
}

// Collapsed counts the entries removed by subsumption.
func (c *Cluster) Collapsed() int { return len(c.Entries) - len(c.Survivors) }

// Clusters groups d's corpus entries by cone signature and collapses
// subsumed entries within each cluster. Clusters sort by signature; the
// whole computation is deterministic for a given corpus.
func Clusters(d *rtl.Design, entries []*Entry) []Cluster {
	bysig := map[string][]*Entry{}
	sigOf := map[string]string{} // cone signature per referenced-signal set
	for _, e := range entries {
		names := e.A.Signals()
		set := strings.Join(names, "\x00")
		s, ok := sigOf[set]
		if !ok {
			s = cone.Signature(d, names)
			sigOf[set] = s
		}
		bysig[s] = append(bysig[s], e)
	}
	out := make([]Cluster, 0, len(bysig))
	for s, members := range bysig {
		sort.Slice(members, func(i, j int) bool { return members[i].Key < members[j].Key })
		out = append(out, Cluster{
			Signature: s,
			Entries:   members,
			Survivors: collapse(members),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// collapse keeps only entries no kept entry subsumes, visiting most-general
// first so a proven general rule absorbs its specializations.
func collapse(members []*Entry) []*Entry {
	order := append([]*Entry(nil), members...)
	sort.Slice(order, func(i, j int) bool {
		if len(order[i].A.Antecedent) != len(order[j].A.Antecedent) {
			return len(order[i].A.Antecedent) < len(order[j].A.Antecedent)
		}
		return order[i].Key < order[j].Key
	})
	var kept []*Entry
	for _, e := range order {
		redundant := false
		for _, k := range kept {
			if assertion.Subsumes(k.A, e.A) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, e)
		}
	}
	return kept
}

// designClusters returns d's entries and their Clusters, memoised per design
// namespace: clustering depends on the corpus slice alone, so every Reduce of
// an unchanged corpus shares one computation. Any new entry drops the memo.
func (c *Corpus) designClusters(d *rtl.Design) ([]*Entry, []Cluster) {
	ns := Namespace(d)
	c.mu.Lock()
	memo, ok := c.clusters[ns]
	gen := c.gen
	c.mu.Unlock()
	if ok {
		return memo.entries, memo.clusters
	}
	memo.entries = c.ForDesign(d)
	memo.clusters = Clusters(d, memo.entries)
	c.mu.Lock()
	if c.gen == gen { // no entry landed while clustering
		if c.clusters == nil {
			c.clusters = map[string]clusterMemo{}
		}
		c.clusters[ns] = memo
	}
	c.mu.Unlock()
	return memo.entries, memo.clusters
}

// clusterMemo is one namespace's memoised clustering.
type clusterMemo struct {
	entries  []*Entry
	clusters []Cluster
}
