package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTPExecutor replays a trace against a live reccd server (or a router in
// front of one) over the /v1 API. Digests are computed from the parsed
// response bodies with the same functions the recording server used, so a
// bit-identical server yields bit-identical digests — JSON float64 encoding
// round-trips exactly.
type HTTPExecutor struct {
	// Base is the server base URL, e.g. http://localhost:8080.
	Base string
	// Client defaults to a 2-minute-timeout client when nil.
	Client *http.Client
}

// statusError is a non-2xx answer, kept typed so the load driver can split
// shed load (4xx) from server failure (5xx).
type statusError struct {
	what   string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("trace: %s answered %d: %s", e.what, e.status, e.body)
}

func (e *HTTPExecutor) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return &http.Client{Timeout: 2 * time.Minute}
}

// Do executes one record. Non-2xx answers are errors (a recorded trace only
// holds operations the recording server accepted).
func (e *HTTPExecutor) Do(ctx context.Context, rec Record) (OpResult, error) {
	switch rec.Op {
	case OpQuery, OpBatchQuery:
		return e.query(ctx, rec.Args)
	case OpAddEdge, OpRemoveEdge:
		return e.mutate(ctx, rec)
	case OpRebuild:
		return e.rebuild(ctx)
	case OpCheckpoint:
		return e.checkpoint(ctx)
	}
	return OpResult{}, fmt.Errorf("trace: unknown op %d", rec.Op)
}

// queryBody is the /v1/eccentricity response element shape.
type queryBody struct {
	Node         int64   `json:"node"`
	Eccentricity float64 `json:"eccentricity"`
	Farthest     int64   `json:"farthest"`
}

// ParseQueryBody digests a raw /v1/eccentricity response body. Shared by the
// replayer and the router's recording tee, which both see only bytes.
func ParseQueryBody(body []byte) (uint64, error) {
	var items []queryBody
	if err := json.Unmarshal(body, &items); err != nil {
		return 0, fmt.Errorf("trace: parsing query response: %w", err)
	}
	res := make([]EccResult, len(items))
	for i, it := range items {
		res[i] = EccResult{Node: it.Node, Ecc: it.Eccentricity, Farthest: it.Farthest}
	}
	return DigestQuery(res), nil
}

// mutationBody is the /v1/edges response shape.
type mutationBody struct {
	Generation uint64  `json:"generation"`
	Mode       string  `json:"mode"`
	Drift      float64 `json:"drift"`
}

// ParseMutationBody digests a raw mutation response body.
func ParseMutationBody(body []byte) (gen, dig uint64, err error) {
	var mb mutationBody
	if err := json.Unmarshal(body, &mb); err != nil {
		return 0, 0, fmt.Errorf("trace: parsing mutation response: %w", err)
	}
	return mb.Generation, DigestMutation(mb.Generation, mb.Mode, mb.Drift), nil
}

func (e *HTTPExecutor) do(ctx context.Context, method, path string, body io.Reader) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.Base+path, body)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client().Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

func headerGen(h http.Header) (uint64, error) {
	return strconv.ParseUint(h.Get("X-Index-Generation"), 10, 64)
}

func (e *HTTPExecutor) query(ctx context.Context, nodes []int64) (OpResult, error) {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.FormatInt(n, 10)
	}
	status, body, hdr, err := e.do(ctx, http.MethodGet, "/v1/eccentricity?node="+strings.Join(parts, ","), nil)
	if err != nil {
		return OpResult{}, err
	}
	if status != http.StatusOK {
		return OpResult{}, &statusError{what: "query", status: status, body: string(body)}
	}
	gen, err := headerGen(hdr)
	if err != nil {
		return OpResult{}, fmt.Errorf("trace: query response generation header: %w", err)
	}
	dig, err := ParseQueryBody(body)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{Gen: gen, Digest: dig}, nil
}

func (e *HTTPExecutor) mutate(ctx context.Context, rec Record) (OpResult, error) {
	if len(rec.Args) != 2 {
		return OpResult{}, fmt.Errorf("trace: mutation record %d has %d args, want 2", rec.Seq, len(rec.Args))
	}
	u, v := rec.Args[0], rec.Args[1]
	var (
		status int
		body   []byte
		err    error
	)
	if rec.Op == OpAddEdge {
		payload := strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
		status, body, _, err = e.do(ctx, http.MethodPost, "/v1/edges", payload)
	} else {
		status, body, _, err = e.do(ctx, http.MethodDelete,
			fmt.Sprintf("/v1/edges?u=%d&v=%d", u, v), nil)
	}
	if err != nil {
		return OpResult{}, err
	}
	if status != http.StatusOK {
		return OpResult{}, &statusError{
			what:   fmt.Sprintf("%s (%d,%d)", rec.Op, u, v),
			status: status, body: string(body),
		}
	}
	gen, dig, err := ParseMutationBody(body)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{Gen: gen, Digest: dig}, nil
}

// health is the /v1/healthz subset the executor needs.
type health struct {
	Generation        uint64 `json:"generation"`
	Rebuilds          uint64 `json:"rebuilds"`
	RebuildInProgress bool   `json:"rebuildInProgress"`
	QueueDepth        int    `json:"queueDepth"`
}

func (e *HTTPExecutor) healthz(ctx context.Context) (health, error) {
	status, body, _, err := e.do(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return health{}, err
	}
	if status != http.StatusOK {
		return health{}, &statusError{what: "healthz", status: status, body: string(body)}
	}
	var h health
	if err := json.Unmarshal(body, &h); err != nil {
		return health{}, fmt.Errorf("trace: parsing healthz: %w", err)
	}
	return h, nil
}

// rebuild triggers a rebuild and polls /v1/healthz until it completes, so
// the next record executes against the post-rebuild index exactly as it did
// when recorded. The requested rebuild may queue behind another one, which
// can advance the counter first, so the queue must also have drained. The
// reported generation is the pre-rebuild one the recording server stamped
// on its 202.
func (e *HTTPExecutor) rebuild(ctx context.Context) (OpResult, error) {
	before, err := e.healthz(ctx)
	if err != nil {
		return OpResult{}, err
	}
	status, body, _, err := e.do(ctx, http.MethodPost, "/v1/rebuild", nil)
	if err != nil {
		return OpResult{}, err
	}
	if status != http.StatusAccepted {
		return OpResult{}, &statusError{what: "rebuild", status: status, body: string(body)}
	}
	for {
		h, err := e.healthz(ctx)
		if err != nil {
			return OpResult{}, err
		}
		if h.Rebuilds > before.Rebuilds && !h.RebuildInProgress && h.QueueDepth == 0 {
			return OpResult{Gen: before.Generation, Digest: DigestGen(before.Generation)}, nil
		}
		select {
		case <-ctx.Done():
			return OpResult{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (e *HTTPExecutor) checkpoint(ctx context.Context) (OpResult, error) {
	status, body, hdr, err := e.do(ctx, http.MethodPost, "/v1/checkpoint", nil)
	if err != nil {
		return OpResult{}, err
	}
	if status != http.StatusOK {
		return OpResult{}, &statusError{what: "checkpoint", status: status, body: string(body)}
	}
	gen, err := headerGen(hdr)
	if err != nil {
		return OpResult{}, fmt.Errorf("trace: checkpoint response generation header: %w", err)
	}
	return OpResult{Gen: gen, Digest: DigestGen(gen)}, nil
}
