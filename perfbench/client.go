package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// conn is one client connection to fmserve: a real keep-alive HTTP
// connection over loopback, or the server's handler called in-process.
type conn interface {
	do(method, path, contentType string, body []byte) (status int, resp []byte, err error)
}

// httpConn is a single keep-alive loopback connection.
type httpConn struct {
	base   string
	client *http.Client
}

func newHTTPConn(addr string) *httpConn {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &httpConn{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *httpConn) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	res, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	return res.StatusCode, out, err
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// inprocConn calls the handler directly, with no socket, and keeps the
// duration of the last ServeHTTP call.
type inprocConn struct {
	h    http.Handler
	last time.Duration
}

func (c *inprocConn) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	c.h.ServeHTTP(rec, req)
	c.last = time.Since(start)
	return rec.Code, rec.Body.Bytes(), nil
}

// phase names the stretch of a run a request belongs to.
type phase string

const (
	phaseSetup phase = "setup"
	phaseTimed phase = "timed"
	phaseCheck phase = "check"
)

var phases = []phase{phaseSetup, phaseTimed, phaseCheck}

// tally counts one endpoint's requests in one phase.
type tally struct {
	Attempted int            `json:"attempted"`
	OK        int            `json:"ok"`
	Failed    int            `json:"failed"`
	ByCode    map[string]int `json:"by_code"` // HTTP status, typed error code, or "transport"
}

// ledger is everything one fmserve instance was sent and acknowledged: the
// per-phase failure accounting plus the sums the output checks compare
// against (records accepted, ε released, sends per body).
type ledger struct {
	mu       sync.Mutex
	tallies  map[phase]map[string]*tally
	accepted map[phase]int64 // records acknowledged by ingest
	appends  map[phase]int64 // WAL events the acknowledged requests journal
	epsilon  float64         // Σ ε over successful releases
	releases int
	sent     []int // acknowledged sends per ingest body
	problems []string
}

func newLedger(w *workload) *ledger {
	l := &ledger{
		tallies:  map[phase]map[string]*tally{},
		accepted: map[phase]int64{},
		appends:  map[phase]int64{},
		sent:     make([]int, len(w.bodies)),
	}
	for _, p := range phases {
		l.tallies[p] = map[string]*tally{}
	}
	return l
}

func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 50 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// record books one finished request.
func (l *ledger) record(p phase, endpoint string, status int, resp []byte, err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tallies[p][endpoint]
	if t == nil {
		t = &tally{ByCode: map[string]int{}}
		l.tallies[p][endpoint] = t
	}
	t.Attempted++
	key := strconv.Itoa(status)
	ok := err == nil && status >= 200 && status < 300
	switch {
	case err != nil:
		key = "transport"
	case !ok:
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(resp, &env) == nil && env.Error.Code != "" {
			key += ":" + env.Error.Code
		}
	}
	t.ByCode[key]++
	if ok {
		t.OK++
	} else {
		t.Failed++
		if len(l.problems) < 50 {
			l.problems = append(l.problems, fmt.Sprintf("%s %s: status %s: %.200s", p, endpoint, key, resp))
		}
	}
	return ok
}

// totals sums attempted and failed requests over every phase.
func (l *ledger) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, byEp := range l.tallies {
		for _, t := range byEp {
			attempted += t.Attempted
			failed += t.Failed
		}
	}
	return attempted, failed
}

// client sends a workload's requests over one conn and books them.
type client struct {
	c   conn
	led *ledger
	w   *workload
}

// call sends one request and books its outcome; it returns the response
// body when the request succeeded.
func (cl *client) call(p phase, endpoint, method, path, contentType string, body []byte) ([]byte, bool) {
	status, resp, err := cl.c.do(method, path, contentType, body)
	return resp, cl.led.record(p, endpoint, status, resp, err)
}

// postJSON sends a setup or check request with a JSON body.
func (cl *client) postJSON(p phase, endpoint, path string, v any) ([]byte, bool) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	resp, ok := cl.call(p, endpoint, http.MethodPost, path, "application/json", b)
	if ok && endpoint == epTenants {
		cl.led.mu.Lock()
		cl.led.appends[p]++ // tenant registration is journaled
		cl.led.mu.Unlock()
	}
	return resp, ok
}

// ingest sends body b and checks the acknowledgement.
func (cl *client) ingest(p phase, b int) bool {
	ct := "application/json"
	if cl.w.binary {
		ct = "application/x-fmbin"
	}
	resp, ok := cl.call(p, epIngest, http.MethodPost, "/v1/streams/"+cl.w.stream+"/ingest", ct, cl.w.bodies[b])
	if !ok {
		return false
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	want := cl.w.rowsIn(b)
	if err := json.Unmarshal(resp, &ack); err != nil || ack.Accepted != want {
		cl.led.problem("%s ingest of body %d: accepted %d records, sent %d (%v)", p, b, ack.Accepted, want, err)
		return false
	}
	cl.led.mu.Lock()
	cl.led.sent[b]++
	cl.led.accepted[p] += int64(ack.Accepted)
	cl.led.appends[p]++
	cl.led.mu.Unlock()
	return true
}

// release sends a fit or refit with the given body and validates the
// released weights. It returns them on success.
func (cl *client) release(p phase, body []byte, epsilon float64) ([]float64, bool) {
	endpoint, path := epFit, "/v1/fit"
	if cl.w.stream != "" {
		endpoint, path = epRefit, "/v1/streams/"+cl.w.stream+"/refit"
	}
	resp, ok := cl.call(p, endpoint, http.MethodPost, path, "application/json", body)
	if !ok {
		return nil, false
	}
	var rel struct {
		Weights []float64 `json:"weights"`
	}
	if err := json.Unmarshal(resp, &rel); err != nil {
		cl.led.problem("%s %s: undecodable response: %v", p, endpoint, err)
		return nil, false
	}
	if len(rel.Weights) != cl.w.d() {
		cl.led.problem("%s %s: %d weights, want d'=%d", p, endpoint, len(rel.Weights), cl.w.d())
		return nil, false
	}
	for _, v := range rel.Weights {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			cl.led.problem("%s %s: non-finite weight %v", p, endpoint, v)
			return nil, false
		}
	}
	cl.led.mu.Lock()
	cl.led.epsilon += epsilon
	cl.led.releases++
	cl.led.appends[p]++ // the durable budget charge
	cl.led.mu.Unlock()
	return rel.Weights, true
}

// promSample is one line of the Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape reads GET /metrics. The scrape itself is not booked: the
// cross-check compares only the endpoints the workload drives.
func scrape(c conn) ([]promSample, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseProm(body)
}

// parseProm parses the sample lines of a Prometheus text exposition.
func parseProm(body []byte) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
			s.name = line[:i]
			rest = line[i+1:]
			for {
				if strings.HasPrefix(rest, "}") {
					rest = rest[1:]
					break
				}
				eq := strings.Index(rest, `="`)
				if eq < 0 {
					return nil, fmt.Errorf("metrics: bad labels in %q", line)
				}
				key := strings.TrimPrefix(rest[:eq], ",")
				rest = rest[eq+2:]
				var val strings.Builder
				for len(rest) > 0 && rest[0] != '"' {
					if rest[0] == '\\' && len(rest) > 1 {
						switch rest[1] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(rest[1])
						}
						rest = rest[2:]
						continue
					}
					val.WriteByte(rest[0])
					rest = rest[1:]
				}
				if len(rest) == 0 {
					return nil, fmt.Errorf("metrics: unterminated label in %q", line)
				}
				rest = strings.TrimPrefix(rest[1:], ",")
				s.labels[key] = val.String()
			}
		} else if i >= 0 {
			s.name = line[:i]
			rest = line[i:]
		}
		fields := strings.Fields(rest)
		if s.name == "" || len(fields) == 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// counterSum sums a family's samples whose labels include match.
func counterSum(samples []promSample, name string, match map[string]string) float64 {
	var sum float64
	for _, s := range samples {
		if s.name != name {
			continue
		}
		hit := true
		for k, v := range match {
			if s.labels[k] != v {
				hit = false
				break
			}
		}
		if hit {
			sum += s.value
		}
	}
	return sum
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
