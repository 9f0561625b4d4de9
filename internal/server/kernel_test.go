package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"imdist/internal/core"
	"imdist/internal/sketchio"
)

// getRaw fetches url and returns the status plus the raw body, for
// byte-for-byte response comparisons.
func getRaw(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestServerKernelsAnswerIdentically serves the same sketch from two servers
// whose oracles are pinned to opposite kernels and requires byte-identical
// response bodies on the whole query surface — the HTTP layer's view of the
// kernel contract.
func TestServerKernelsAnswerIdentically(t *testing.T) {
	serverFor := func(kernel core.Kernel) *httptest.Server {
		oracle := loadedKarateOracle(t)
		if err := oracle.SetKernel(kernel); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Oracle: oracle, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		if got := sketchKernels(t, ts.URL); len(got) != 1 || got[0] != string(kernel) {
			t.Fatalf("/v1/sketches reports kernels %v, want [%s]", got, kernel)
		}
		return ts
	}
	epoch := serverFor(core.KernelEpoch)
	bitpack := serverFor(core.KernelBitpack)

	type call struct{ method, path, body string }
	calls := []call{
		{"POST", "/v1/influence", `{"seeds":[0,33,16]}`},
		{"POST", "/v1/influence", `{"seeds":[5]}`},
		{"POST", "/v1/influence:batch", `[{"seeds":[0]},{"seeds":[1,2,3]},{"seeds":[30,31,32,33]}]`},
		{"POST", "/v1/seeds", `{"k":5}`},
		{"GET", "/v1/top?k=8", ""},
	}
	for _, c := range calls {
		var wantStatus, gotStatus int
		var want, got []byte
		if c.method == "GET" {
			wantStatus, want = getRaw(t, epoch.URL+c.path)
			gotStatus, got = getRaw(t, bitpack.URL+c.path)
		} else {
			wantStatus, want = postJSON(t, epoch.URL+c.path, c.body)
			gotStatus, got = postJSON(t, bitpack.URL+c.path, c.body)
		}
		if wantStatus != 200 || gotStatus != 200 {
			t.Fatalf("%s %s: statuses %d vs %d", c.method, c.path, wantStatus, gotStatus)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s %s: epoch body %s != bitpack body %s", c.method, c.path, want, got)
		}
	}
}

// sketchKernels returns the kernel field of every sketch /v1/sketches lists.
func sketchKernels(t *testing.T, base string) []string {
	t.Helper()
	var list struct {
		Sketches []struct {
			Kernel string `json:"kernel"`
		} `json:"sketches"`
	}
	if status := getJSON(t, base+"/v1/sketches", &list); status != 200 {
		t.Fatalf("GET /v1/sketches: status %d", status)
	}
	kernels := make([]string, len(list.Sketches))
	for i, sk := range list.Sketches {
		kernels[i] = sk.Kernel
	}
	return kernels
}

// TestSketchesReportOracleKernel pins that every sketch runs the kernel its
// oracle chose: a file loaded through Registry.LoadFile (the imserve and
// admin reload path) reports the auto policy's choice — bitpack, since
// Karate's RR sets are dense — and Register leaves a caller's oracle on the
// kernel it already had.
func TestSketchesReportOracleKernel(t *testing.T) {
	s, err := New(Config{AllowEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "karate.sketch")
	var buf bytes.Buffer
	if err := sketchio.Encode(&buf, karateOracle(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().LoadFile("karate", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if got := sketchKernels(t, ts.URL); len(got) != 1 || got[0] != "bitpack" {
		t.Errorf("/v1/sketches reports kernels %v for a loaded Karate sketch, want [bitpack]", got)
	}

	pinned := karateOracle(t)
	if err := pinned.SetKernel(core.KernelEpoch); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("pinned", pinned); err != nil {
		t.Fatal(err)
	}
	if got := pinned.KernelResolved(); got != core.KernelEpoch {
		t.Errorf("Register changed the caller's oracle to kernel %q", got)
	}
}
