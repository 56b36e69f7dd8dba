package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"nocbt"
	"nocbt/internal/serve"
)

// clients is the closed-loop client count, and so the most connections the
// load opens: one per core of the two-core host the benchmark was set up
// on. Two concurrent misses are also the smallest load under which the
// batcher coalesces requests.
const clients = 2

// serving drives the serving stack in process — serve.New(serve.Config{})
// behind a loopback httptest server — with closed-loop clients sending
// /v1/infer requests for random-weight LeNet on the default serving
// platform (4×4, fixed-8, O2, pipelined layers). Every timed request is a
// distinct input, as in the serve package's BenchmarkServeInfer: no traffic
// record exists to say how often real clients repeat an input, so the
// timed load is all result-cache misses. After the timed phase the inputs
// the digest covers are requested again, untimed, to check that the cache
// replays exactly what the misses computed.
type serving struct {
	fresh int // leading inputs the digest covers; the timed phase lasts until all are answered

	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	warm   []float32
	// prom0 is /metrics after set-up, so the traced run's serving layers
	// cover the timed phase only.
	prom0 map[string]float64

	mu       sync.Mutex
	answers  map[int64][]float32
	resolved int // leading inputs answered or failed
	missMS   []float64
}

// inputSeed is the input seed of the k-th request of a run (k = -1 is the
// warm-up request).
func inputSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

// setUp starts a fresh server and sends the warm-up request, whose served
// output must equal a direct O0 inference of the same input.
func (w *serving) setUp(r *run, rep int) error {
	w.close()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	w.srv, w.hs = srv, httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	in := inputSeed(r.seed, -1)
	resp, hit, err := w.request(r, in, 0)
	if err == nil {
		err = checkAnswer(in, false, hit, resp)
	}
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	var ref *nocbt.Tensor
	err = r.call("accel.reference", 0, r.trace, func() error {
		o0, err := paperPlatform(nocbt.O0)
		if err != nil {
			return err
		}
		m := nocbt.LeNet(r.seed)
		eng, err := nocbt.NewEngine(o0, m)
		if err != nil {
			return err
		}
		ref, err = eng.Infer(r.ctx, nocbt.SampleInput(m, in))
		return err
	})
	if err != nil {
		return fmt.Errorf("O0 reference: %w", err)
	}
	if !sameBits(ref.Data, resp.Output) {
		r.opDone(fmt.Errorf("served output of the warm-up input differs from a direct O0 inference"))
	}
	w.warm = resp.Output
	w.answers = map[int64][]float32{}
	w.resolved, w.missMS = 0, nil
	if r.trace {
		w.prom0, err = w.scrape(r)
	}
	return err
}

// request sends one /v1/infer request and reports whether the result cache
// answered it. On traced runs every request is a span: the two clients'
// requests share batches, so no request can be left untraced without
// changing the ones it coalesces with.
func (w *serving) request(r *run, in, tid int64) (serve.InferResponse, bool, error) {
	var resp serve.InferResponse
	var hit bool
	err := r.call("serve.request", tid, r.trace, func() error {
		body, err := json.Marshal(serve.InferRequest{Model: "lenet", Seed: r.seed, InputSeed: in})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(r.ctx, http.MethodPost, w.hs.URL+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		res, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("input %d: status %d: %s", in, res.StatusCode, strings.TrimSpace(string(b)))
		}
		hit = res.Header.Get("X-Cache") == "hit"
		return json.Unmarshal(b, &resp)
	})
	return resp, hit, err
}

// measure runs the closed-loop clients until the timed phase has lasted
// r.seconds and the leading inputs are all answered.
func (w *serving) measure(r *run) []sample {
	var samples []sample
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tid int64) {
			defer wg.Done()
			for {
				w.mu.Lock()
				if r.ctx.Err() != nil || (time.Since(start) >= r.seconds && w.resolved >= w.fresh) {
					w.mu.Unlock()
					return
				}
				k := next
				next++
				w.mu.Unlock()

				in := inputSeed(r.seed, k)
				t := time.Now()
				resp, hit, err := w.request(r, in, tid)
				d := msSince(t)
				if err == nil {
					err = checkAnswer(in, false, hit, resp)
				}

				w.mu.Lock()
				if err == nil {
					w.answers[in] = resp.Output
				}
				if k < w.fresh {
					w.resolved++
				}
				w.missMS = append(w.missMS, d)
				samples = append(samples, sample{ms: d, traced: r.trace})
				w.mu.Unlock()
				r.opDone(err)
			}
		}(int64(c + 1))
	}
	wg.Wait()
	return samples
}

// checkAnswer holds a response to what was asked: a cache hit exactly when
// one is expected, and LeNet's ten outputs.
func checkAnswer(in int64, wantHit, hit bool, resp serve.InferResponse) error {
	if hit != wantHit || resp.Cached != wantHit {
		return fmt.Errorf("input %d: X-Cache hit=%v and cached=%v, want %v", in, hit, resp.Cached, wantHit)
	}
	if len(resp.Output) != 10 {
		return fmt.Errorf("input %d: %d outputs, want 10", in, len(resp.Output))
	}
	return nil
}

// finish checks the digest of the warm-up output and the leading outputs,
// then requests each of those inputs again: every repeat must be a cache
// hit that replays the miss's output bit for bit. On traced runs it reports
// the serving layers.
func (w *serving) finish(r *run) error {
	h := sha256.New()
	writeFloats(h, w.warm)
	for k := 0; k < w.fresh; k++ {
		out, ok := w.answers[inputSeed(r.seed, k)]
		if !ok {
			r.opDone(fmt.Errorf("input %d was never answered; the digest cannot be checked", k))
			return nil
		}
		writeFloats(h, out)
	}
	r.checkDigest(hex.EncodeToString(h.Sum(nil)))
	var hitMS []float64
	for k := 0; k < w.fresh; k++ {
		in := inputSeed(r.seed, k)
		t := time.Now()
		resp, hit, err := w.request(r, in, 0)
		hitMS = append(hitMS, msSince(t))
		if err == nil {
			err = checkAnswer(in, true, hit, resp)
		}
		if err == nil && !sameBits(resp.Output, w.answers[in]) {
			err = fmt.Errorf("input %d: cache hit differs from the miss that computed it", in)
		}
		r.opDone(err)
	}
	if !r.trace {
		return nil
	}
	r.set("serve.miss_ms_p50", median(w.missMS), "ms")
	r.set("serve.hit_ms_p50", median(hitMS), "ms")
	prom, err := w.scrape(r)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return prom[name] - w.prom0[name] }
	flushMS := 1000 * ratio(delta("nocbt_serve_batch_flush_latency_seconds_sum"), delta("nocbt_serve_batch_flush_latency_seconds_count"))
	r.set("serve.flush_ms_mean", flushMS, "ms")
	r.set("serve.batch_size_mean", ratio(delta("nocbt_serve_batch_size_sum"), delta("nocbt_serve_batch_size_count")), "count")
	var missSum float64
	for _, d := range w.missMS {
		missSum += d
	}
	r.set("serve.queue_ms_mean", ratio(missSum, float64(len(w.missMS)))-flushMS, "ms")
	return nil
}

// scrape reads the server's /metrics page into a name → value map.
func (w *serving) scrape(r *run) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, w.hs.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func (w *serving) close() {
	if w.hs != nil {
		w.client.CloseIdleConnections()
		w.hs.Close()
		w.srv.Close()
		w.hs, w.srv = nil, nil
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
