package obsv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pktclass/internal/obsv/flowstats"
	"pktclass/internal/packet"
)

// topFlowDetector builds a detector holding two flows with known counts.
func topFlowDetector(t *testing.T) *flowstats.Detector {
	t.Helper()
	d := flowstats.NewDetector(1, 8, 64)
	hot := packet.Header{SIP: 0x0a000001, DIP: 0xc0a80001, SP: 1234, DP: 80, Proto: 6}
	cold := packet.Header{SIP: 0x0a000002, DIP: 0xc0a80002, SP: 1235, DP: 443, Proto: 6}
	var hdrs []packet.Header
	var hashes []uint64
	for i := 0; i < 9; i++ {
		hdrs = append(hdrs, hot)
		hashes = append(hashes, hot.Key().Hash())
	}
	hdrs = append(hdrs, cold)
	hashes = append(hashes, cold.Key().Hash())
	d.ObserveBatch(0, hdrs, hashes)
	return d
}

func TestTopflowsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	det := topFlowDetector(t)
	srv.SetTopFlows(det.Report)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topflows", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"packets=10", "rank", "90.00%"} {
		if !strings.Contains(body, want) {
			t.Fatalf("topflows missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topflows?format=json&n=1", nil))
	var rep flowstats.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("topflows JSON: %v\n%s", err, rec.Body.String())
	}
	if rep.Packets != 10 || len(rep.Flows) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Flows[0].Count != 9 || rep.Flows[0].Share != 0.9 {
		t.Fatalf("top flow = %+v", rep.Flows[0])
	}
}

func TestTopflowsDisabledMessage(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topflows", nil))
	if !strings.Contains(rec.Body.String(), "flow detection disabled") {
		t.Fatalf("disabled message missing:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topflows?format=json", nil))
	if strings.TrimSpace(rec.Body.String()) != "{}" {
		t.Fatalf("disabled JSON = %q, want {}", rec.Body.String())
	}
}

func TestEventzEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	j := NewJournal(8)
	j.Append(EventSwapCommitted, 1, 256, 0, 0)
	j.Append(EventGenerationRetired, 4, 0, 8, 0)
	srv.SetJournal(j)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/eventz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"appended=2", "swap-committed", "generation-retired"} {
		if !strings.Contains(body, want) {
			t.Fatalf("eventz missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/eventz?format=json&n=1", nil))
	var doc struct {
		Journal JournalStats `json:"journal"`
		Events  []Event      `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("eventz JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Journal.Appended != 2 || len(doc.Events) != 1 {
		t.Fatalf("eventz doc = %+v", doc)
	}
	// n=1 keeps the newest event.
	if doc.Events[0].Kind != EventGenerationRetired || doc.Events[0].B != 8 {
		t.Fatalf("newest event = %+v", doc.Events[0])
	}
}

func TestEventzDisabledMessage(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/eventz", nil))
	if !strings.Contains(rec.Body.String(), "event journaling disabled") {
		t.Fatalf("disabled message missing:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/eventz?format=json", nil))
	if strings.TrimSpace(rec.Body.String()) != "{}" {
		t.Fatalf("disabled JSON = %q, want {}", rec.Body.String())
	}
}
