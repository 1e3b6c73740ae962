package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		// Router-level rejections (405) are plain text; that's fine.
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
	}
	return rec, out
}

func TestHealthz(t *testing.T) {
	rec, out := do(t, Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, out)
	}
}

func TestListings(t *testing.T) {
	h := Handler()
	rec, out := do(t, h, "GET", "/v1/systems", "")
	if rec.Code != 200 || len(out["systems"].([]any)) < 5 {
		t.Fatalf("systems: %d %v", rec.Code, out)
	}
	rec, out = do(t, h, "GET", "/v1/datasets", "")
	if rec.Code != 200 || len(out["datasets"].([]any)) != 3 {
		t.Fatalf("datasets: %d %v", rec.Code, out)
	}
}

func TestRun(t *testing.T) {
	rec, out := do(t, Handler(), "POST", "/v1/run",
		`{"system":"bullet","dataset":"sharegpt","rate":4,"n":20,"seed":1}`)
	if rec.Code != 200 {
		t.Fatalf("run: %d %v", rec.Code, out)
	}
	if out["Requests"].(float64) != 20 {
		t.Fatalf("requests = %v", out["Requests"])
	}
	if out["MeanTTFT"].(float64) <= 0 {
		t.Fatalf("MeanTTFT = %v", out["MeanTTFT"])
	}
	if out["PerRequest"] != nil {
		t.Fatal("per-request included without opt-in")
	}
}

func TestRunPerRequest(t *testing.T) {
	rec, out := do(t, Handler(), "POST", "/v1/run",
		`{"system":"sglang-1024","dataset":"azure-code","rate":2,"n":10,"seed":1,"includePerRequest":true}`)
	if rec.Code != 200 {
		t.Fatalf("run: %d %v", rec.Code, out)
	}
	if got := len(out["PerRequest"].([]any)); got != 10 {
		t.Fatalf("per-request entries = %d", got)
	}
}

func TestRunDefaults(t *testing.T) {
	rec, out := do(t, Handler(), "POST", "/v1/run", `{"system":"bullet","n":10}`)
	if rec.Code != 200 {
		t.Fatalf("defaulted run failed: %d %v", rec.Code, out)
	}
}

func TestRunValidation(t *testing.T) {
	h := Handler()
	cases := []struct{ body, want string }{
		{`{"system":"no-such-system","n":5}`, "no-such-system"},
		{`{"system":"bullet","dataset":"imagenet","n":5}`, "imagenet"},
		{`{"system":"bullet","n":999999}`, "n=999999"},
		{`{{{`, "parsing request"},
		{`{"system":"bullet","dataset":"sharegpt","rate":-3,"n":10}`, "rate must be >= 0"},
		{`{"system":"bullet","rate":4,"n":-10}`, "n must be >= 0"},
	}
	for _, c := range cases {
		rec, out := do(t, h, "POST", "/v1/run", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d %v", c.body, rec.Code, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.want) {
			t.Errorf("body %q: error %q, want it to contain %q", c.body, msg, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	rec, out := do(t, Handler(), "POST", "/v1/compare",
		`{"systems":["bullet","sglang-1024"],"dataset":"azure-code","rate":3,"n":15,"seed":2}`)
	if rec.Code != 200 {
		t.Fatalf("compare: %d %v", rec.Code, out)
	}
	results := out["results"].(map[string]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	for sys, v := range results {
		if v.(map[string]any)["Requests"].(float64) != 15 {
			t.Fatalf("%s incomplete: %v", sys, v)
		}
	}
}

// TestCompareEchoesResolvedLoad: /v1/compare reports the dataset, rate
// and n it ran, defaults filled in, and rejects a negative rate or n
// before running anything.
func TestCompareEchoesResolvedLoad(t *testing.T) {
	h := Handler()
	rec, out := do(t, h, "POST", "/v1/compare", `{"systems":["bullet"],"n":10}`)
	if rec.Code != 200 {
		t.Fatalf("compare: %d %v", rec.Code, out)
	}
	if out["dataset"] != "sharegpt" || out["rate"] != 8.0 || out["n"] != 10.0 {
		t.Errorf("echoed dataset %v, rate %v, n %v; want sharegpt, 8, 10", out["dataset"], out["rate"], out["n"])
	}
	for _, body := range []string{
		`{"systems":["bullet"],"rate":-3,"n":10}`,
		`{"systems":["bullet"],"rate":3,"n":-10}`,
	} {
		rec, out := do(t, h, "POST", "/v1/compare", body)
		if msg, _ := out["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "must be >= 0") {
			t.Errorf("body %q: code %d %v", body, rec.Code, out)
		}
	}
}

func TestCompareTooManySystems(t *testing.T) {
	many := `{"systems":[` + strings.Repeat(`"bullet",`, 16) + `"bullet"],"n":5}`
	rec, _ := do(t, Handler(), "POST", "/v1/compare", many)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("17 systems accepted: %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	rec, _ := do(t, Handler(), "GET", "/v1/run", "")
	if rec.Code == http.StatusOK {
		t.Fatal("GET /v1/run should not succeed")
	}
}
