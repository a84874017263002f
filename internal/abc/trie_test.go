package abc

import (
	"math/rand"
	"testing"
)

// TestFactTrieMatchesMap: random batches of slot assignments over ids
// spread up to 2^21 — so the trie grows through several levels and prunes
// emptied nodes — answer every lookup like a map, and every earlier trie
// keeps answering like the map did when it was made (path copying never
// writes into a published node).
func TestFactTrieMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	islands := []*Island{{}, {}, {}}
	type version struct {
		trie factTrie
		want map[uint32]*Island
	}
	var versions []version
	tr := newFactTrie()
	want := map[uint32]*Island{}
	for step := 0; step < 400; step++ {
		var es []trieEntry
		for k := 0; k < 1+rng.Intn(10); k++ {
			id := uint32(rng.Intn(1 << (step % 22)))
			var isl *Island
			if rng.Intn(3) > 0 {
				isl = islands[rng.Intn(len(islands))]
			}
			es = append(es, trieEntry{id, isl})
		}
		next := make(map[uint32]*Island, len(want))
		for id, isl := range want {
			next[id] = isl
		}
		for _, e := range es {
			if e.isl == nil {
				delete(next, e.id)
			} else {
				next[e.id] = e.isl
			}
		}
		tr, want = tr.with(es), next
		versions = append(versions, version{tr, want})
		if step%20 != 19 {
			continue
		}
		for i, v := range versions {
			n := 0
			v.trie.forEach(func(id uint32, isl *Island) {
				n++
				if v.want[id] != isl {
					t.Fatalf("version %d: forEach yields a stale slot %d", i, id)
				}
			})
			if n != len(v.want) {
				t.Fatalf("version %d: forEach yields %d slots, want %d", i, n, len(v.want))
			}
			for id, isl := range v.want {
				if v.trie.get(id) != isl {
					t.Fatalf("version %d: get(%d) differs from the map", i, id)
				}
			}
		}
	}
}
