package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// eccAnswer is one element of a /v1/eccentricity response.
type eccAnswer struct {
	Node         int64   `json:"node"`
	Eccentricity float64 `json:"eccentricity"`
	Farthest     int64   `json:"farthest"`
}

// summaryAnswer is the /v1/summary response.
type summaryAnswer struct {
	Radius       float64 `json:"radius"`
	Diameter     float64 `json:"diameter"`
	DiameterPair []int64 `json:"diameterPair"`
	HullDiameter float64 `json:"hullDiameter"`
	Mean         float64 `json:"mean"`
	Skewness     float64 `json:"skewness"`
	Center       []int64 `json:"center"`
}

type resAnswer struct {
	U          int64   `json:"u"`
	V          int64   `json:"v"`
	Resistance float64 `json:"resistance"`
}

type mutAnswer struct {
	U          int64  `json:"u"`
	V          int64  `json:"v"`
	Generation uint64 `json:"generation"`
	Mode       string `json:"mode"`
}

// oracle holds the answers the served index must give, bit for bit. While
// the workload's own mutations change the index, the client runs without
// one and checks only that each answer is well formed.
type oracle struct {
	ecc     map[int64]eccAnswer
	res     func(u, v int64) float64
	summary *summaryAnswer
}

// client sends ops to one reccd and checks every answer.
type client struct {
	base  string
	hc    *http.Client
	want  *oracle
	nodes map[int64]bool // the served external ids, for shape checks
	keep  *keeper        // when set, collects every eccentricity answer
	tr    *tracer        // when set, records a span per request
	phase int            // parent span of the requests
}

// newClient opens at most conns connections to base.
func newClient(base string, conns int, nodes map[int64]bool, want *oracle) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		want:  want,
		nodes: nodes,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func joinIDs(ids []int64) string {
	b := make([]byte, 0, 8*len(ids))
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return string(b)
}

func (c *client) request(o *op) (*http.Request, error) {
	switch o.kind {
	case opEcc:
		return http.NewRequest(http.MethodGet, c.base+"/v1/eccentricity?node="+joinIDs(o.ids), nil)
	case opRes:
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/resistance?u=%d&v=%d", c.base, o.ids[0], o.ids[1]), nil)
	case opSummary:
		return http.NewRequest(http.MethodGet, c.base+"/v1/summary", nil)
	case opAdd:
		return http.NewRequest(http.MethodPost, c.base+"/v1/edges",
			strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, o.ids[0], o.ids[1])))
	default:
		return http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/edges?u=%d&v=%d", c.base, o.ids[0], o.ids[1]), nil)
	}
}

// exec sends o and checks the answer. Any transport error, non-200 status,
// malformed body or wrong answer leaves the sample not ok. The answer check
// runs after the clock stops.
func (c *client) exec(o *op) sample {
	s := sample{op: o, kind: o.kind}
	req, err := c.request(o)
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.done = time.Now()
		s.err = err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	c.tr.request("client."+opNames[o.kind], c.phase, s.sent, s.done)
	s.gen, _ = strconv.ParseUint(resp.Header.Get("X-Index-Generation"), 10, 64)
	if err != nil {
		s.err = err.Error()
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return s
	}
	if err := c.check(o, body, &s); err != nil {
		s.err = fmt.Sprintf("%s %v: %v", opNames[o.kind], o.ids, err)
		return s
	}
	s.ok = true
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finitePos(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }

func (c *client) check(o *op, body []byte, s *sample) error {
	switch o.kind {
	case opEcc:
		var got []eccAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got) != len(o.ids) {
			return fmt.Errorf("%d answers for %d ids", len(got), len(o.ids))
		}
		seen := make(map[int64]bool, len(o.ids))
		for i, a := range got {
			seen[o.ids[i]] = true
			if a.Node != o.ids[i] {
				return fmt.Errorf("answer %d is for node %d", i, a.Node)
			}
			if c.want != nil {
				w := c.want.ecc[a.Node]
				if !sameBits(a.Eccentricity, w.Eccentricity) || a.Farthest != w.Farthest {
					return fmt.Errorf("node %d: got (%v, %d), want (%v, %d)",
						a.Node, a.Eccentricity, a.Farthest, w.Eccentricity, w.Farthest)
				}
			} else if !finitePos(a.Eccentricity) || !c.nodes[a.Farthest] {
				return fmt.Errorf("node %d: malformed answer (%v, %d)", a.Node, a.Eccentricity, a.Farthest)
			}
		}
		s.ids, s.uniq = len(o.ids), len(seen)
		if c.keep != nil {
			c.keep.mu.Lock()
			for _, a := range got {
				c.keep.ecc[a.Node] = a
			}
			c.keep.mu.Unlock()
		}
	case opRes:
		var got resAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.U != o.ids[0] || got.V != o.ids[1] {
			return fmt.Errorf("answer is for (%d,%d)", got.U, got.V)
		}
		if c.want != nil {
			if w := c.want.res(got.U, got.V); !sameBits(got.Resistance, w) {
				return fmt.Errorf("got %v, want %v", got.Resistance, w)
			}
		} else if !(finitePos(got.Resistance) || (got.U == got.V && got.Resistance == 0)) {
			return fmt.Errorf("malformed resistance %v", got.Resistance)
		}
	case opSummary:
		var got summaryAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if c.want != nil {
			return sameSummary(got, *c.want.summary)
		}
		if !finitePos(got.Radius) || got.Diameter < got.Radius || len(got.Center) == 0 {
			return fmt.Errorf("malformed summary %+v", got)
		}
	default:
		var got mutAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.U != o.ids[0] || got.V != o.ids[1] || (got.Mode != "incremental" && got.Mode != "stale") {
			return fmt.Errorf("malformed ack %+v", got)
		}
		s.mode = got.Mode
	}
	return nil
}

func sameSummary(got, want summaryAnswer) error {
	if !sameBits(got.Radius, want.Radius) || !sameBits(got.Diameter, want.Diameter) ||
		!sameBits(got.HullDiameter, want.HullDiameter) || !sameBits(got.Mean, want.Mean) ||
		!sameBits(got.Skewness, want.Skewness) || !sameIDs(got.Center, want.Center) ||
		!sameIDs(got.DiameterPair, want.DiameterPair) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
