package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/server/api"
)

// The exact-bytes memo lets a warm resubmission skip parse, validate
// and hash. Its key is the sha256 of a sync whole-mode request's raw
// design bytes and of the request fields the cache key derives from;
// its value is the cache key the slow path derived from those same
// bytes after they validated. The digest is a strictly finer key than
// the canonical one, so a memo hit can only name the key the slow path
// would compute. The memo lives and dies with the process, holds no
// payloads, and changes no response: a request it misses takes the
// slow path, which fills it.

// memoEntries bounds the memo; the oldest entry goes first.
const memoEntries = 1024

// memoMaxFlow bounds the canonical flow script an entry may hold, so
// that memoEntries bounds the memo's bytes too (about 5 MiB). Longer
// scripts, far beyond any named flow, are not memoized.
const memoMaxFlow = 4 << 10

// keyMemo is the bounded digest -> cache key map.
type keyMemo struct {
	mu   sync.Mutex
	keys map[[sha256.Size]byte]cache.Key
	// order holds the digests in insertion order, a ring once full:
	// order[next] is then the oldest.
	order [][sha256.Size]byte
	next  int
}

func (m *keyMemo) get(d [sha256.Size]byte) (cache.Key, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[d]
	return k, ok
}

// put records the key derived from the request bytes behind digest d.
// The same bytes always derive the same key, so a known digest is left
// as it is.
func (m *keyMemo) put(d [sha256.Size]byte, k cache.Key) {
	if len(k.Flow) > memoMaxFlow {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.keys[d]; ok {
		return
	}
	if m.keys == nil {
		m.keys = map[[sha256.Size]byte]cache.Key{}
	}
	if len(m.order) < memoEntries {
		m.order = append(m.order, d)
	} else {
		delete(m.keys, m.order[m.next])
		m.order[m.next] = d
		m.next = (m.next + 1) % memoEntries
	}
	m.keys[d] = k
}

// memoDigest hashes the raw design bytes with the request fields that
// the cache key derives from: flow, script, the resolved mode and the
// options key. Workers is left out, as from the cache key. The
// preceding fields are length-prefixed and the design comes last, so
// no two requests share a digest by shifting bytes between fields.
func memoDigest(req api.OptimizeRequest, mode string) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range []string{req.Flow, req.Script, mode, optionsKey(req)} {
		fmt.Fprintf(h, "%d:%s", len(f), f)
	}
	h.Write(req.Design)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// serveMemo is the fast path: it answers a request whose digest the
// memo holds from the cache, under the same admission and run slot as
// any sync request (so 503 on drain or a full queue and 499 for a
// client gone still hold). It returns a nil response when the request
// must take the slow path instead: the entry is in no cache tier, or
// its payload does not decode. Such a payload is evicted here, so the
// slow path recomputes it, and a miss is left for the slow path's own
// lookup to count: the fallback counts each lookup once.
func (s *Server) serveMemo(ctx context.Context, key cache.Key, clk *stageClock) (*api.OptimizeResponse, json.RawMessage, error) {
	release, err := s.runSlot(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer clk.lap(stageServe)
	defer release()
	clk.lap(stageQueue)
	start := time.Now()
	id := key.ID()
	raw, ok := s.cache.Probe(id)
	if !ok {
		return nil, nil, nil
	}
	resp := &api.OptimizeResponse{}
	reports, err := decodePayload(raw, resp)
	if err != nil {
		s.logf("evicting corrupt cached payload key=%s: %v", id[:12], err)
		s.cache.Delete(id)
		return nil, nil, nil
	}
	s.finishWhole(resp, key, "hit", start)
	return resp, reports, nil
}
