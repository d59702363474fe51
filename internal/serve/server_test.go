package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/nn"
)

func testServer(t *testing.T) (*Publisher, *Batcher, *httptest.Server) {
	t.Helper()
	net := nn.MustNetwork(nn.Arch{
		InputDim: 6, Hidden: []int{8}, OutputDim: 3, Activation: nn.ActSigmoid,
	})
	pub := NewPublisher(net)
	b := NewBatcher(pub, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	ts := httptest.NewServer(NewServer(b))
	t.Cleanup(func() { ts.Close(); b.Close() })
	return pub, b, ts
}

func publishTest(t *testing.T, pub *Publisher) {
	t.Helper()
	params := pub.Net().NewParams(nn.InitXavier, rand.New(rand.NewPCG(7, 7)))
	pub.PublishParams(params)
}

func TestHealthzReflectsPublishes(t *testing.T) {
	pub, _, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before publish = %d, want 503", resp.StatusCode)
	}
	publishTest(t, pub)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after publish = %d, want 200", resp.StatusCode)
	}
}

func TestPredictJSONEndpoint(t *testing.T) {
	pub, _, ts := testServer(t)
	publishTest(t, pub)
	body := `{"instances": [
		[0.1, -0.2, 0.3, 0, 0.5, -0.6],
		{"indices": [0, 4], "values": [0.1, 0.5]}
	]}`
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != 2 {
		t.Fatalf("%d predictions", len(out.Predictions))
	}
	for i, p := range out.Predictions {
		if p.Class < 0 || p.Class > 2 || len(p.Scores) != 3 || p.ModelVersion != 1 || p.BatchSize < 1 {
			t.Fatalf("prediction %d = %+v", i, p)
		}
	}
}

func TestPredictLIBSVMEndpoint(t *testing.T) {
	pub, _, ts := testServer(t)
	publishTest(t, pub)
	// One bare feature line, one full training line whose label is skipped.
	body := "1:0.5 3:1.0\n2 4:0.25 2:-1\n"
	resp, err := http.Post(ts.URL+"/v1/predict/libsvm", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict/libsvm = %d", resp.StatusCode)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != 2 {
		t.Fatalf("%d predictions", len(out.Predictions))
	}
}

// TestJSONAndLIBSVMShareTheSparsePairRule sends one row as unsorted JSON
// pairs and as an out-of-order LIBSVM line, each repeating index 4 (LIBSVM
// 5), and as its normalised pairs: all three must be served the same scores,
// bit for bit, and the same class — the last duplicate wins on both paths.
func TestJSONAndLIBSVMShareTheSparsePairRule(t *testing.T) {
	pub, _, ts := testServer(t)
	publishTest(t, pub)
	predict := func(path, body string) jsonPrediction {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(out.Predictions) != 1 {
			t.Fatalf("%s = %d with %d predictions", path, resp.StatusCode, len(out.Predictions))
		}
		return out.Predictions[0]
	}
	want := predict("/v1/predict", `{"instances": [{"indices": [0, 2, 4], "values": [-0.3, 0.25, -0.9]}]}`)
	for _, got := range []jsonPrediction{
		predict("/v1/predict", `{"instances": [{"indices": [4, 0, 2, 4], "values": [0.7, -0.3, 0.25, -0.9]}]}`),
		predict("/v1/predict/libsvm", "5:0.7 1:-0.3 3:0.25 5:-0.9\n"),
	} {
		if got.Class != want.Class || len(got.Scores) != len(want.Scores) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		for j := range want.Scores {
			if math.Float64bits(got.Scores[j]) != math.Float64bits(want.Scores[j]) {
				t.Fatalf("score %d = %v, want %v", j, got.Scores[j], want.Scores[j])
			}
		}
	}
}

func TestPredictErrorMapping(t *testing.T) {
	pub, _, ts := testServer(t)

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// No model yet → 503.
	if code := post("/v1/predict", `{"instances": [[0,0,0,0,0,0]]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("no-model predict = %d, want 503", code)
	}
	publishTest(t, pub)
	if code := post("/v1/predict", `{"instances": []}`); code != http.StatusBadRequest {
		t.Fatalf("empty instances = %d, want 400", code)
	}
	if code := post("/v1/predict", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", code)
	}
	if code := post("/v1/predict", `{"instances": [[1, 2]]}`); code != http.StatusBadRequest {
		t.Fatalf("wrong dimension = %d, want 400", code)
	}
	if code := post("/v1/predict/libsvm", "1:abc\n"); code != http.StatusBadRequest {
		t.Fatalf("bad libsvm = %d, want 400", code)
	}
}

func TestStatszEndpoint(t *testing.T) {
	pub, _, ts := testServer(t)
	publishTest(t, pub)
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"instances": [[0.1, -0.2, 0.3, 0, 0.5, -0.6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 || rep.Batches != 1 || rep.ModelVersion != 1 {
		t.Fatalf("report = %+v", rep)
	}
}
