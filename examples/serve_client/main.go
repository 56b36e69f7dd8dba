// Serve client: spin up the serving subsystem in-process on an ephemeral
// port, then act as an HTTP client against it — the request patterns a
// production deployment of cmd/btserved sees. The example fires a burst
// of concurrent /v1/infer requests (watch batch_size: the first requests
// run alone on the idle replicas, and the micro-batcher coalesces the
// rest while both replicas are busy), repeats an experiment run to show the
// content-addressed cache answering byte-identically, and finishes with
// the /metrics counters.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"nocbt/internal/serve"
)

func main() {
	srv, err := serve.New(serve.Config{
		Replicas: 2,
		MaxBatch: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("btserved stack listening on %s\n\n", ts.URL)

	// A burst of concurrent inferences on the default platform (4×4 mesh,
	// O2 separated-ordering, pipelined layers). LeNet with untrained
	// weights keeps the example fast; trained weights would train once and
	// memoize.
	const burst = 6
	fmt.Printf("POST /v1/infer — burst of %d concurrent requests\n", burst)
	var wg sync.WaitGroup
	results := make([]serve.InferResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"lenet","seed":1,"input_seed":%d}`, i)
			var r serve.InferResponse
			if err := post(ts.URL+"/v1/infer", body, &r); err != nil {
				log.Fatal(err)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		fmt.Printf("  input_seed=%d batch_size=%d latency=%d cycles output[0]=%.4f\n",
			i, r.BatchSize, r.LatencyCycles, r.Output[0])
	}

	// The same request again: answered from the content-addressed cache
	// without touching a mesh.
	var cached serve.InferResponse
	if err := post(ts.URL+"/v1/infer", `{"model":"lenet","seed":1,"input_seed":0}`, &cached); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepeat of input_seed=0: cached=%v (same output: %v)\n",
		cached.Cached, cached.Output[0] == results[0].Output[0])

	// Experiments run through the same cache; repeats are byte-identical.
	fmt.Println("\nPOST /v1/experiments/run — fig1 twice")
	req := `{"name":"fig1","params":{"quick":true,"step":8}}`
	first, hdr1, err := postRaw(ts.URL+"/v1/experiments/run", req)
	if err != nil {
		log.Fatal(err)
	}
	second, hdr2, err := postRaw(ts.URL+"/v1/experiments/run", req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  first:  X-Cache=%s (%d bytes)\n", hdr1, len(first))
	fmt.Printf("  second: X-Cache=%s, byte-identical=%v\n", hdr2, bytes.Equal(first, second))

	// The serving counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nGET /metrics (counters only):")
	for _, line := range strings.Split(string(metrics), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			fmt.Println("  " + line)
		}
	}
}

// post sends a JSON body and decodes the JSON response into out.
func post(url, body string, out any) error {
	data, _, err := postRaw(url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// postRaw sends a JSON body and returns the raw response plus its X-Cache
// header.
func postRaw(url, body string) ([]byte, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: %s: %s", url, resp.Status, data)
	}
	return data, resp.Header.Get("X-Cache"), nil
}
