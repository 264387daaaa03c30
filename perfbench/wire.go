package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/serve"
)

// drivesPerDaemon is how many drives one quicknnd serves in rebuild
// maintenance. Each start is a set-up sample; a process per drive would
// spend much of the run on cold processes.
const drivesPerDaemon = 8

// daemon is one quicknnd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	pprof  string // pprof listener base, when started with one
	client *http.Client
	out    chan struct{} // closed when stdout is drained
}

// startDaemon starts quicknnd and waits until it listens. withPprof adds
// the pprof listener the traced run reads the Go runtime counters from.
func startDaemon(o options, w workload, withPprof bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-maintenance", maintName(w.maint)}
	if withPprof {
		args = append(args, "-pprof", "127.0.0.1:0")
	}
	cmd := exec.Command(o.quicknnd, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start quicknnd: %w", err)
	}
	d := &daemon{cmd: cmd, out: make(chan struct{})}
	listening := make(chan struct{})
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "quicknnd: pprof on "); ok {
				d.pprof = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if rest, ok := strings.CutPrefix(line, "quicknnd: listening on "); ok && !announced {
				d.base, announced = rest, true
				close(listening)
			}
		}
		if !announced {
			close(listening)
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	<-listening
	if d.base == "" {
		d.stop()
		return nil, errors.New("quicknnd exited before listening")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        w.callers + 1,
		MaxIdleConnsPerHost: w.callers + 1,
		MaxConnsPerHost:     w.callers,
		DisableCompression:  true,
	}}
	return d, nil
}

// stop ends the process with SIGTERM (quicknnd drains and exits), or
// kills it after ten seconds, and waits for it.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.out
		done <- d.cmd.Wait()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("quicknnd ignored SIGTERM; killed")
	}
}

// post sends one request body and reads the whole reply; sec is the
// round trip up to the last byte of the body.
func (d *daemon) post(ctx context.Context, path string, body []byte) (status int, data []byte, sec float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, now() - start, err
	}
	data, err = io.ReadAll(resp.Body)
	sec = now() - start
	resp.Body.Close()
	return resp.StatusCode, data, sec, err
}

// get fetches a URL's body.
func (d *daemon) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// maintName is quicknnd's -maintenance value for a workload's mode.
func maintName(m serve.Maintenance) string {
	if m == serve.MaintIncremental {
		return "incremental"
	}
	return "rebuild"
}

// bodies are the wire requests of one drive, encoded before any timing:
// one /v1/frame body per frame and one /v1/search body per frame and
// request.
type bodies struct {
	frame  [][]byte
	search [][][]byte
}

func encodeDrive(p *plan, d int) (*bodies, error) {
	frames := p.drives[d]
	b := &bodies{frame: make([][]byte, len(frames)), search: make([][][]byte, len(frames))}
	triples := func(pts []quicknn.Point) [][3]float32 {
		out := make([][3]float32, len(pts))
		for i, pt := range pts {
			out[i] = [3]float32{pt.X, pt.Y, pt.Z}
		}
		return out
	}
	mode := "approx"
	if p.w.mode == quicknn.ModeExact {
		mode = "exact"
	}
	for f, pts := range frames {
		var err error
		if b.frame[f], err = json.Marshal(map[string]any{"points": triples(pts)}); err != nil {
			return nil, err
		}
		for r := 0; r < p.w.reqsPerStep; r++ {
			lo, hi := p.querySpan(pts, r)
			body, err := json.Marshal(map[string]any{
				"queries": triples(pts[lo:hi]),
				"k":       knn, "mode": mode, "strict": true,
			})
			if err != nil {
				return nil, err
			}
			b.search[f] = append(b.search[f], body)
		}
	}
	return b, nil
}

// searchReply and frameReply are the /v1 reply bodies, decoded here
// independently of quicknnd's own types.
type searchReply struct {
	Epoch   uint64 `json:"epoch"`
	Results [][]struct {
		Index  int        `json:"index"`
		Point  [3]float32 `json:"point"`
		DistSq float64    `json:"dist_sq"`
	} `json:"results"`
	Degrade string `json:"degrade"`
}

type frameReply struct {
	Epoch  uint64 `json:"epoch"`
	Points int    `json:"points"`
}

// checkSearch decodes and checks one /v1/search reply, returning the
// answers as neighbour lists.
func checkSearch(status int, data []byte, epoch uint64, q, ref []quicknn.Point) ([][]quicknn.Neighbor, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var rep searchReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, wrongf("reply: %v", err)
	}
	if err := expectEpoch(rep.Epoch, epoch); err != nil {
		return nil, err
	}
	if rep.Degrade != "" || len(rep.Results) != len(q) {
		return nil, wrongf("%d answers for %d queries (degrade %q)", len(rep.Results), len(q), rep.Degrade)
	}
	out := make([][]quicknn.Neighbor, len(q))
	for i, res := range rep.Results {
		out[i] = make([]quicknn.Neighbor, len(res))
		for j, nb := range res {
			out[i][j] = quicknn.Neighbor{Index: nb.Index,
				Point: quicknn.Point{X: nb.Point[0], Y: nb.Point[1], Z: nb.Point[2]}, DistSq: nb.DistSq}
		}
		if err := checkAnswer(q[i], out[i], ref); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// postFrame sends a frame body and checks the reply: the new epoch and
// the frame's point count.
func (d *daemon) postFrame(ctx context.Context, body []byte, points int, epoch uint64) (float64, uint64, error) {
	status, data, sec, err := d.post(ctx, "/v1/frame", body)
	if err != nil {
		return sec, epoch, err
	}
	if status != http.StatusOK {
		return sec, epoch, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var rep frameReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return sec, epoch, wrongf("frame reply: %v", err)
	}
	if rep.Points != points {
		return sec, rep.Epoch, wrongf("frame reply counts %d points, want %d", rep.Points, points)
	}
	return sec, rep.Epoch, expectEpoch(rep.Epoch, epoch+1)
}

// runWire measures the wire workload against quicknnd processes. The
// traced run also reads their Go runtime counters around each visit.
func runWire(ctx context.Context, o options, p *plan, t *tally) (runStats, error) {
	var st runStats
	var sm samples
	if err := wireLoop(ctx, o, p, 0, o.seconds, o.trace, t, &sm, &st, nil); err != nil {
		return st, err
	}
	st.recall, st.recallN = sm.score(p.w.mode == quicknn.ModeExact, t)
	return st, nil
}

// wireLoop runs the closed loop over HTTP. Every drivesPerDaemon-th
// drive visit starts a fresh quicknnd, and so does every visit in
// incremental maintenance; the time from starting it to its first
// answered search is a set-up sample. Each step then runs the search phase
// against the current epoch and POSTs the step's frame. With counters
// set, the Go runtime counters of every quicknnd are summed over its
// visit; tr, when non-nil, records a span per request and frame POST.
func wireLoop(ctx context.Context, o options, p *plan, rounds int, seconds float64, counters bool,
	t *tally, sm *samples, st *runStats, tr *wireTrace) error {
	var (
		d     *daemon
		b     *bodies
		epoch uint64
		r0    [3]float64
	)
	stopDaemon := func() error {
		if d == nil {
			return nil
		}
		defer func() { d = nil }()
		if counters {
			r1, err := d.runtimeCounters(ctx)
			if err != nil {
				d.stop()
				return err
			}
			st.allocBytes += r1[0] - r0[0]
			st.gcCycles += r1[1] - r0[1]
			st.gcPauseSec += r1[2] - r0[2]
		}
		peak, err := peakRSSMB(fmt.Sprint(d.cmd.Process.Pid))
		if err != nil {
			d.stop()
			return err
		}
		st.memPeakMB = max(st.memPeakMB, peak)
		return d.stop()
	}
	type reply struct {
		status     int
		data       []byte
		start, sec float64
		err        error
	}
	replies := make([]reply, p.w.reqsPerStep)
	var opID int64
	start := func(drive int) error {
		var err error
		if b, err = encodeDrive(p, drive); err != nil {
			return err
		}
		first := stepID{drive: drive, j: 1}
		if drive%drivesPerDaemon != 0 && p.w.maint == serve.MaintRebuild {
			// Rebuild maintenance carries nothing from one frame to the
			// next, so one quicknnd serves several drives: a new drive
			// starts with an untimed POST of its first frame.
			_, epoch, err = d.postFrame(ctx, b.frame[p.frameAt(0)], len(p.prev(first)), epoch)
			t.record(opName(first, "first frame"), err)
			return nil
		}
		if err := stopDaemon(); err != nil {
			return err
		}
		begin := now()
		if d, err = startDaemon(o, p.w, counters); err != nil {
			return err
		}
		_, epoch, err = d.postFrame(ctx, b.frame[p.frameAt(0)], len(p.prev(first)), 0)
		t.record(opName(first, "set-up frame"), err)
		if err == nil {
			status, data, _, perr := d.post(ctx, "/v1/search", b.search[p.frameAt(1)][0])
			if perr == nil {
				_, perr = checkSearch(status, data, epoch, p.request(first, 0), p.prev(first))
			}
			t.record(opName(first, "set-up search"), perr)
		}
		st.setup = append(st.setup, now()-begin)
		if counters {
			r0, err = d.runtimeCounters(ctx)
		}
		return err
	}
	step := func(s stepID) error {
		fi := p.frameAt(s.j)
		stepStart := now()
		phase := searchPhase(p, func(r int) {
			rp := reply{start: now()}
			rp.status, rp.data, rp.sec, rp.err = d.post(ctx, "/v1/search", b.search[fi][r])
			replies[r] = rp
		})
		for r, rp := range replies {
			opID++
			err := rp.err
			var answers [][]quicknn.Neighbor
			if err == nil {
				answers, err = checkSearch(rp.status, rp.data, epoch, p.request(s, r), p.prev(s))
			}
			t.record(opName(s, fmt.Sprintf("request %d", r)), err)
			st.latency = append(st.latency, rp.sec)
			if err == nil {
				st.points += int64(p.w.reqPoints)
				sm.add(p, s, r, opID, answers)
			}
			tr.request(s, r, rp.start, rp.sec)
			replies[r] = reply{}
		}
		postStart := now()
		sec, next, err := d.postFrame(ctx, b.frame[fi], len(p.frame(s)), epoch)
		t.record(opName(s, "frame"), err)
		epoch = next
		tr.frame(s, postStart, sec, stepStart, phase+sec)
		st.ingest = append(st.ingest, sec)
		st.frame = append(st.frame, phase+sec)
		st.searchSec += phase
		st.steps++
		return nil
	}
	err := runRounds(p, rounds, seconds, start, step)
	if serr := stopDaemon(); err == nil {
		err = serr
	}
	return err
}

// runtimeCounters reads quicknnd's cumulative allocated bytes (from its
// pprof heap profile's MemStats trailer), GC cycles and GC pause seconds
// (from its /v1/metrics runtime gauges).
func (d *daemon) runtimeCounters(ctx context.Context) ([3]float64, error) {
	var out [3]float64
	if d.pprof == "" {
		return out, errors.New("quicknnd started without pprof")
	}
	heap, err := d.get(ctx, d.pprof+"/debug/pprof/heap?debug=1")
	if err != nil {
		return out, err
	}
	metrics, err := d.get(ctx, d.base+"/v1/metrics")
	if err != nil {
		return out, err
	}
	for i, key := range []struct {
		text []byte
		name string
	}{{heap, "# TotalAlloc = "}, {metrics, "quicknn_go_gc_total "}, {metrics, "quicknn_go_gc_pause_total_seconds "}} {
		found := false
		for _, line := range strings.Split(string(key.text), "\n") {
			if rest, ok := strings.CutPrefix(line, key.name); ok {
				if out[i], err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
					return out, fmt.Errorf("parse %q: %w", line, err)
				}
				found = true
				break
			}
		}
		if !found {
			return out, fmt.Errorf("quicknnd reports no %q", strings.TrimSpace(key.name))
		}
	}
	return out, nil
}
