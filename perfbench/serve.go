package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"chiron/internal/scenario"
)

// The serve workload's traffic: serveClients closed-loop clients, each
// serving sessionsPerClient sessions per repetition against a fresh
// chirond, rotating through small library scenarios that declare no churn.
const (
	serveClients      = 2
	sessionsPerClient = 100
	// chirondHeartbeat is far longer than any session, so no node is ever
	// latched as departing.
	chirondHeartbeat = "10m"
)

var serveRotation = []string{"paper-baseline", "flaky-network", "faulty-fleet", "heterogeneous-mix"}

// serveSpecs returns the sessions one repetition serves: the rotation's
// specs in turn, each with its own seed made from the run's seed and the
// session's index, so every session draws its own fleet, draws and
// faults and the run's readings average over all of them.
func serveSpecs(seed int64) ([]*scenario.Spec, error) {
	specs := make([]*scenario.Spec, serveClients*sessionsPerClient)
	for j := range specs {
		name := serveRotation[j%len(serveRotation)]
		s, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("no library scenario %q", name)
		}
		s.Seed += seed*int64(len(specs)) + int64(j)
		specs[j] = s
	}
	return specs, nil
}

// twin is what the in-process run of one session's spec gave: the digest
// the served session must match, its committed rounds and its run time.
type twin struct {
	digest string
	rounds int
	runS   float64
}

// twins runs every session's spec in process: once through scenario.Run,
// timed, for the digest, and once through the checked sequential pass,
// which checks every episode's ledger, counts the committed rounds, and
// must reach the same digest.
func twins(specs []*scenario.Spec, rep *report) ([]twin, error) {
	out := make([]twin, len(specs))
	for j, s := range specs {
		t := time.Now()
		res, err := scenario.Run(s, 1)
		if err != nil {
			return nil, err
		}
		runS := time.Since(t).Seconds()
		chk, rounds, err := checkGrid(s, rep, nil, nil)
		if err != nil {
			return nil, err
		}
		rep.chk.err(checkDigest(s.Name+": checked pass against scenario.Run", chk, res))
		out[j] = twin{digest: res.Digest(), rounds: rounds, runS: runS}
	}
	return out, nil
}

// chirond is one running server process.
type chirond struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	stderr bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChirond starts the server and waits until /healthz answers.
func startChirond(bin string, client *http.Client) (*chirond, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serveClients), "-queue", "8", "-heartbeat", chirondHeartbeat)
	d := &chirond{cmd: cmd, base: "http://" + addr, start: time.Now()}
	cmd.Stdout = io.Discard
	cmd.Stderr = &d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start chirond: %w", err)
	}
	deadline := d.start.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("chirond did not answer /healthz within 20s")
}

// stop sends SIGTERM, waits for the process to exit, and returns the CPU
// time it used and how long it lived.
func (d *chirond) stop() (cpu, wall time.Duration, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; the exit below is what matters
		err = fmt.Errorf("chirond did not exit on SIGTERM: %v", <-done)
	}
	if err != nil {
		err = fmt.Errorf("chirond: %w; its log:\n%s", err, d.stderr.String())
	}
	wall = time.Since(d.start)
	if st := d.cmd.ProcessState; st != nil {
		cpu = st.UserTime() + st.SystemTime()
	}
	return cpu, wall, err
}

// httpStat is one request's latency and response size. A poll is a
// status or episodes read sent while the session was still running: how
// many a session sends depends on how fast it runs.
type httpStat struct {
	ms    float64
	bytes int
	poll  bool
}

// sessionStat is what one served session measured.
type sessionStat struct {
	totalS        float64 // POST /sessions to done
	queueMS, runS float64 // start to running, start to done
	episodeBytes  int
	rounds        int
	utility, acc  float64
	ok            bool
}

// serveClient is one closed-loop client: it waits for each answer before
// sending its next request.
type serveClient struct {
	http *http.Client
	base string
	rep  *report
	sc   *scope

	reqs     []httpStat
	sessions []sessionStat
	// polling marks the requests call sends as polls.
	polling bool
}

// call sends one request and decodes a 2xx answer into out. Any other
// status counts as a failed request of that endpoint.
func (c *serveClient) call(endpoint, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	c.sc.begin("chirond." + endpoint)
	t := time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(t)) / 1e6
	c.sc.end()
	failed := err != nil || resp.StatusCode/100 != 2
	c.rep.ops.add("http."+endpoint, 1, count(failed))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.reqs = append(c.reqs, httpStat{ms: ms, bytes: len(data), poll: c.polling})
	if failed {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Wire forms of the chirond answers the client reads.
type (
	statusView struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Digest string `json:"digest"`
		Churn  string `json:"churn"`
	}
	episodesView struct {
		State  string `json:"state"`
		Events []struct {
			Seq int `json:"seq"`
		} `json:"events"`
		Next int `json:"next"`
	}
	resultView struct {
		Digest string `json:"digest"`
		Result struct {
			Cells []struct {
				Result struct {
					FinalAccuracy float64
					ServerUtility float64
				}
			}
		} `json:"result"`
	}
)

// count is 1 for a failed operation, else 0.
func count(failed bool) int64 {
	if failed {
		return 1
	}
	return 0
}

func terminal(state string) bool {
	return state == "done" || state == "stopped" || state == "failed"
}

// serveSession runs one session from creation to result and checks it.
func (c *serveClient) serveSession(spec *scenario.Spec, tw twin) sessionStat {
	var st sessionStat
	c.sc.begin("session.lifecycle")
	defer c.sc.end()
	err := c.runSession(spec, tw, &st)
	c.rep.ops.add("session", 1, count(err != nil))
	if err != nil {
		c.rep.chk.failf("session %s: %v", spec.Name, err)
		return st
	}
	st.ok = true
	return st
}

func (c *serveClient) runSession(spec *scenario.Spec, tw twin, st *sessionStat) error {
	t0 := time.Now()
	var created statusView
	if err := c.call("create", "POST", "/sessions", map[string]any{"spec": spec, "workers": 1, "registry": true}, &created); err != nil {
		return err
	}
	id := created.ID
	n := spec.NumNodes()
	for i := 0; i < n; i++ {
		if err := c.call("register", "POST", "/sessions/"+id+"/nodes", map[string]int{"node": i}, nil); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if err := c.call("heartbeat", "POST", "/sessions/"+id+"/nodes/"+strconv.Itoa(i)+"/heartbeat", map[string]int{}, nil); err != nil {
			return err
		}
	}
	var started statusView
	if err := c.call("start", "POST", "/sessions/"+id+"/start", nil, &started); err != nil {
		return err
	}
	tStart := time.Now()
	// The start answer may already show the session running; otherwise
	// the first poll that does not show it queued ends its queue time.
	queued := started.State == "queued"
	cursor := 0
	var seqs []int
	var status statusView
	// The episodes answer reads the events before the state, so an answer
	// that says done may still miss the last events: poll once more after
	// the first terminal answer, and count the sessions whose extra poll
	// brought events as http.episodes_stale.
	for final := false; ; {
		c.polling = !final
		var ev episodesView
		if err := c.call("episodes", "GET", "/sessions/"+id+"/episodes?since="+strconv.Itoa(cursor), nil, &ev); err != nil {
			return err
		}
		st.episodeBytes += c.reqs[len(c.reqs)-1].bytes
		for _, e := range ev.Events {
			seqs = append(seqs, e.Seq)
		}
		cursor = ev.Next
		if final {
			c.rep.defects.add("http.episodes_stale", 1, count(len(ev.Events) > 0))
			break
		}
		if terminal(ev.State) {
			final = true
			continue
		}
		if err := c.call("status", "GET", "/sessions/"+id, nil, &status); err != nil {
			return err
		}
		if queued && status.State != "queued" {
			st.queueMS = float64(time.Since(tStart)) / 1e6
			queued = false
		}
	}
	c.polling = false
	st.runS = time.Since(tStart).Seconds()
	st.totalS = time.Since(t0).Seconds()
	if err := c.call("status", "GET", "/sessions/"+id, nil, &status); err != nil {
		return err
	}
	var res resultView
	if status.State == "done" {
		if err := c.call("result", "GET", "/sessions/"+id+"/result", nil, &res); err != nil {
			return err
		}
	}
	if err := checkServed(spec, status, seqs, res.Digest, tw.digest); err != nil {
		return err
	}
	st.rounds = tw.rounds
	for _, cell := range res.Result.Cells {
		st.utility += cell.Result.ServerUtility / float64(len(res.Result.Cells))
		st.acc += cell.Result.FinalAccuracy / float64(len(res.Result.Cells))
	}
	return nil
}

// checkServed checks a finished session: it reached done, its event
// stream holds one event per episode in strictly increasing sequence, and
// its digest equals the in-process scenario.Run of the same spec with the
// latched membership. Every node heartbeats within its timeout, so that
// membership script must be empty and the in-process twin is the spec as
// it stands.
func checkServed(spec *scenario.Spec, status statusView, seqs []int, resultDigest, twinDigest string) error {
	if status.State != "done" {
		return fmt.Errorf("ended %s: %s", status.State, status.Error)
	}
	if want := expectedEvents(spec); len(seqs) != want {
		return fmt.Errorf("%d episode events, want %d", len(seqs), want)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return fmt.Errorf("episode event seq %d after %d", seqs[i], seqs[i-1])
		}
	}
	if status.Churn != "" {
		return fmt.Errorf("latched churn %q, want none", status.Churn)
	}
	if resultDigest != twinDigest || status.Digest != twinDigest {
		return fmt.Errorf("digest %s (status %s), in-process scenario.Run %s", resultDigest, status.Digest, twinDigest)
	}
	return nil
}

// expectedEvents is the size of a finished session's event stream: one
// event per training episode of each learning cell, one per cell for its
// evaluation. The static mechanisms do not train.
func expectedEvents(spec *scenario.Spec) int {
	n := 0
	for _, m := range spec.Mechanisms {
		for range spec.Budgets {
			n++
			if m != "uniform" && m != "equal-time" {
				n += spec.TrainEpisodes
			}
		}
	}
	return n
}

// serveRep is one repetition: a fresh chirond serving every client's
// sessions.
type serveRep struct {
	setupS, wallS  float64
	rssMiB         float64
	cpuPerWall     float64
	listBytes      int
	sessions       []sessionStat
	reqs           []httpStat
	rounds, served int
}

func serveOnce(bin string, specs []*scenario.Spec, tw []twin, rep *report, sc *scope) (serveRep, error) {
	var r serveRep
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	d, err := startChirond(bin, client)
	if err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	clients := make([]*serveClient, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range clients {
		c := &serveClient{http: client, base: d.base, rep: rep, sc: sc.child()}
		clients[ci] = c
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for j := ci * sessionsPerClient; j < (ci+1)*sessionsPerClient; j++ {
				c.sessions = append(c.sessions, c.serveSession(specs[j], tw[j]))
			}
		}(ci)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	for _, c := range clients {
		r.reqs = append(r.reqs, c.reqs...)
		r.sessions = append(r.sessions, c.sessions...)
	}
	for _, s := range r.sessions {
		if s.ok {
			r.rounds += s.rounds
			r.served++
		}
	}
	list := &serveClient{http: client, base: d.base, rep: rep, sc: sc}
	var all struct {
		Sessions []statusView `json:"sessions"`
	}
	lerr := list.call("list", "GET", "/sessions", nil, &all)
	if lerr == nil {
		r.listBytes = list.reqs[0].bytes
		if len(all.Sessions) != serveClients*sessionsPerClient {
			rep.chk.failf("GET /sessions lists %d sessions, served %d", len(all.Sessions), serveClients*sessionsPerClient)
		}
	}
	r.rssMiB, err = peakRSSMiB(d.cmd.Process.Pid)
	cpu, wall, serr := d.stop()
	r.cpuPerWall = float64(cpu) / float64(wall)
	for _, e := range []error{lerr, err, serr} {
		if e != nil {
			return r, e
		}
	}
	if r.served == 0 {
		return r, fmt.Errorf("no session was served")
	}
	return r, nil
}

// chirondPath is where run.sh builds the server.
const chirondPath = ".bench_build/chirond"

func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	specs, err := serveSpecs(cfg.seed)
	if err != nil {
		return nil, err
	}
	tw, err := twins(specs, rep)
	if err != nil {
		return nil, err
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var reps []serveRep
	n, err := repeat(budget, 3, func(int) error {
		r, err := serveOnce(chirondPath, specs, tw, rep, nil)
		reps = append(reps, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The first repetition warms the client and the page cache of the
	// server binary; it is left out of the medians.
	timed := reps[1:]
	var setups, rps, sps, rss, totals, reqMS, util, acc, cpu []float64
	for _, r := range reps {
		setups = append(setups, r.setupS)
	}
	for _, r := range timed {
		rps = append(rps, float64(r.rounds)/r.wallS)
		sps = append(sps, float64(r.served)/r.wallS)
		rss = append(rss, r.rssMiB)
		cpu = append(cpu, r.cpuPerWall)
		for _, s := range r.sessions {
			if s.ok {
				totals = append(totals, s.totalS)
				util = append(util, s.utility)
				acc = append(acc, s.acc)
			}
		}
		for _, q := range r.reqs {
			if !q.poll {
				reqMS = append(reqMS, q.ms)
			}
		}
	}
	var walls, repReqMS []float64
	for _, r := range timed {
		walls = append(walls, r.wallS)
		var ms []float64
		for _, q := range r.reqs {
			if !q.poll {
				ms = append(ms, q.ms)
			}
		}
		repReqMS = append(repReqMS, median(ms))
	}
	fmt.Fprintf(os.Stderr, "%d repetitions of %d sessions; warm-up %.3fs, timed median %.3fs: %.3f\nrequest median per repetition (ms): %.4f\n",
		n, serveClients*sessionsPerClient, reps[0].wallS, median(walls), walls, repReqMS)
	if !cfg.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("rounds_per_s", "rounds/s", median(rps))
		rep.set("eval_utility", "utility", mean(util))
		rep.set("final_accuracy", "accuracy", mean(acc))
		rep.set("peak_rss_mb", "MiB", median(rss))
		rep.set("sessions_per_s", "sessions/s", median(sps))
		rep.set("session_p50_s", "s", median(totals))
		rep.set("request_p50_ms", "ms", median(reqMS))
		return rep, nil
	}
	rep.set("process.cpu_per_wall", "cpu/wall", median(cpu))
	return rep, traceServe(cfg, specs, tw, rep, median(sps))
}

// traceServe repeats the sessions with a span around every request, every
// session's lifecycle and every repetition, and reports the serving
// layer's per-endpoint latencies and sizes.
func traceServe(cfg runConfig, specs []*scenario.Spec, tw []twin, rep *report, untracedSPS float64) error {
	tr := newTracer(fmt.Sprintf("serve-seed%d", cfg.seed))
	var sps, queue, run, epBytes, list []float64
	_, err := repeat(cfg.seconds/2, 1, func(int) error {
		sc := tr.scope()
		sc.begin("workload.rep")
		defer sc.end()
		r, err := serveOnce(chirondPath, specs, tw, rep, sc)
		if err != nil {
			return err
		}
		sps = append(sps, float64(r.served)/r.wallS)
		list = append(list, float64(r.listBytes))
		for _, s := range r.sessions {
			if s.ok {
				queue = append(queue, s.queueMS)
				run = append(run, s.runS)
				epBytes = append(epBytes, float64(s.episodeBytes))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	var all []float64
	for _, ep := range []string{"create", "start", "status", "episodes", "register", "heartbeat", "result"} {
		ms := scaled(byName(spans, "chirond."+ep), 1e-6)
		all = append(all, ms...)
		rep.set("chirond."+ep+"_ms_p50", "ms", median(ms))
	}
	rep.set("chirond.request_ms_p99", "ms", percentile(all, 99))
	rep.set("chirond.list_bytes", "B", median(list))
	rep.set("chirond.episodes_bytes", "B", median(epBytes))
	rep.set("session.queue_ms", "ms", median(queue))
	rep.set("session.run_s", "s", median(run))
	var runS []float64
	for _, t := range tw {
		runS = append(runS, t.runS)
	}
	rep.set("scenario.run_s", "s", median(runS))
	rep.setSelfShares(spans)
	rep.setOverhead(untracedSPS, median(sps))
	return writeTrace(tr, cfg.traceDir)
}
