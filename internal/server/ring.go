// Consistent-hash ring for the multi-node mode. Every node — this
// process plus each -peers URL — owns an arc of the job-ID space, so
// any node can compute any job's owner without coordination: identical
// requests hash to identical IDs (request.Key is a content address),
// which lands them on the same owner no matter which node they enter
// through. That turns the per-node result caches and disk stores into
// one sharded, deduplicated cache for the whole fabric.
//
// The ring uses virtual nodes (128 points per node) so ownership splits
// evenly even with two or three nodes, and truncated SHA-256 for
// placement — cheap hashes (FNV and friends) visibly cluster on the
// short, similar strings vnode labels are made of, skewing ownership by
// multiples. Losing a node only remaps the arcs that node owned;
// everything else keeps its owner — and the forwarding path falls back
// to local execution when an owner is down, so placement is an
// optimization, never a point of failure.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// ringPoints is the number of virtual nodes per member. 128 keeps the
// largest/smallest ownership ratio within a few percent for small
// fabrics while the points slice stays tiny (KBs).
const ringPoints = 128

// ring maps job IDs onto fabric members. Immutable after newRing, so
// reads need no locking.
type ring struct {
	self   string      // this node's member name (its advertised URL)
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// newRing builds the ring over self plus peers. Duplicate member names
// are collapsed: a peer list that accidentally names self does not give
// this node double weight.
func newRing(self string, peers []string) *ring {
	members := map[string]bool{self: true}
	for _, p := range peers {
		members[p] = true
	}
	r := &ring{self: self, points: make([]ringPoint, 0, len(members)*ringPoints)}
	for m := range members {
		for i := 0; i < ringPoints; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, i)), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so equal hashes still order deterministically
		// on every node.
		return r.points[i].node < r.points[j].node
	})
	return r
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the member that owns id: the first point clockwise from
// the id's hash, wrapping at the top.
func (r *ring) owner(id string) string {
	h := ringHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// local reports whether this node owns id.
func (r *ring) local(id string) bool { return r.owner(id) == r.self }

// forwardedHeader marks a request routed by a peer. The receiving node
// executes it locally regardless of ring ownership, so a stale or
// asymmetric peer list can cause an extra hop's latency but never a
// forwarding loop.
const forwardedHeader = "X-Sttllc-Forwarded"

// forwardAttempts bounds transport retries per forward before the
// caller fails over to local execution.
const forwardAttempts = 2

// forward runs req on its ring owner: a blocking POST of the canonical
// request to the peer's /v1/simulations, marked forwarded. Transport
// errors are retried once; any remaining error — peer down, peer
// overloaded (429/503), peer-side failure — is returned for the caller
// to fail over to local execution. A successful forward returns the
// peer's dump, validated and kept as the peer encoded it, which the
// local store then persists too: results replicate onto the nodes that
// actually serve their traffic.
func (s *Server) forward(ctx context.Context, peer string, req SimulationRequest) (result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("server: canonicalizing forward body: %v", err))
	}
	url := strings.TrimSuffix(peer, "/") + "/v1/simulations?wait=true"
	var lastErr error
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
		if err != nil {
			return result{}, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(forwardedHeader, "1")
		resp, err := s.httpc.Do(hreq)
		if err != nil {
			lastErr = err
			continue
		}
		res, err := decodeForwardResponse(resp)
		if err != nil {
			lastErr = fmt.Errorf("peer %s: %w", peer, err)
			continue
		}
		s.forwarded.Add(1)
		return res, nil
	}
	return result{}, lastErr
}

// decodeForwardResponse turns a peer's reply into a completed result or
// an error. Anything but a 200 "done" with a valid dump is an error: the
// peer may be draining, overloaded, or have genuinely failed the job —
// in every case the local node decides what to do next.
func decodeForwardResponse(resp *http.Response) (result, error) {
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return result{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	// A JobStatus whose dump stays undecoded until decodeResult
	// validates it.
	var st struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return result{}, fmt.Errorf("decoding reply: %v", err)
	}
	if st.State != "done" || st.Result == nil {
		return result{}, fmt.Errorf("job %s on peer: %s", st.State, st.Error)
	}
	res, err := decodeResult(st.Result)
	if err != nil {
		return result{}, fmt.Errorf("peer result: %v", err)
	}
	return res, nil
}
