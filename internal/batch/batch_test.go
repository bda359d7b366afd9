package batch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func postReq(t *testing.T, contentType string, body []byte) *http.Request {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	return r
}

func TestParseManifest(t *testing.T) {
	// Item a carries a field Item does not have (manifests once carried
	// a client's features this way); unknown fields are ignored.
	body := []byte(`{"items":[
		{"name":"a","workload":"spmm","dataset":"qcd5_4","repeats":2,"features":"1,1,1,1,1,1,1,1"},
		{"name":"b","workload":"cc","dataset":"amazon0312","searcher":"coarse2","seed":7}
	]}`)
	job, err := ParseRequest(postReq(t, "application/json", body), 0, 0)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(job.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(job.Items))
	}
	if job.Items[0].Key() != "dataset:qcd5_4" {
		t.Errorf("key = %q", job.Items[0].Key())
	}
	if job.Items[1].Seed != 7 || job.Items[1].Searcher != "coarse2" {
		t.Errorf("item b params not preserved: %+v", job.Items[1])
	}
}

func TestParseRejectsDuplicateNames(t *testing.T) {
	body := []byte(`{"items":[{"name":"a","dataset":"qcd5_4"},{"name":"a","dataset":"amazon0312"}]}`)
	_, err := ParseRequest(postReq(t, "application/json", body), 0, 0)
	var be *Error
	if !errors.As(err, &be) || be.Code != "duplicate_item" || be.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want duplicate_item 400", err)
	}
}

func TestParseRejectsEmptyAndNameless(t *testing.T) {
	for _, tc := range []struct {
		body, code string
	}{
		{`{"items":[]}`, "empty"},
		{`{"items":[{"dataset":"qcd5_4"}]}`, "bad_manifest"},
		{`{"items":[{"name":"a"}]}`, "bad_manifest"},
		{`not json`, "bad_manifest"},
	} {
		_, err := ParseRequest(postReq(t, "application/json", []byte(tc.body)), 0, 0)
		var be *Error
		if !errors.As(err, &be) || be.Code != tc.code {
			t.Errorf("body %q: err = %v, want code %q", tc.body, err, tc.code)
		}
	}
}

func TestParseEnforcesMaxItems(t *testing.T) {
	body := []byte(`{"items":[{"name":"a","dataset":"x"},{"name":"b","dataset":"y"},{"name":"c","dataset":"z"}]}`)
	_, err := ParseRequest(postReq(t, "application/json", body), 2, 0)
	var be *Error
	if !errors.As(err, &be) || be.Status != http.StatusRequestEntityTooLarge || be.Code != "too_many_items" {
		t.Fatalf("err = %v, want too_many_items 413", err)
	}
}

func TestParseEnforcesMaxBytes(t *testing.T) {
	body := []byte(`{"items":[{"name":"a","dataset":"qcd5_4"}]}`)
	_, err := ParseRequest(postReq(t, "application/json", body), 0, 10)
	var be *Error
	if !errors.As(err, &be) || be.Status != http.StatusRequestEntityTooLarge || be.Code != "too_large" {
		t.Fatalf("err = %v, want too_large 413", err)
	}
}

func TestMultipartRoundTrip(t *testing.T) {
	mtx := []byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n")
	items := []Item{
		{Name: "known", Workload: "spmm", Dataset: "qcd5_4"},
		{Name: "up", Workload: "cc", Seed: 3, Body: mtx},
	}
	body, ct, err := EncodeRequest(items)
	if err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	if !strings.HasPrefix(ct, "multipart/form-data") {
		t.Fatalf("content type = %q", ct)
	}
	job, err := ParseRequest(postReq(t, ct, body), 0, 0)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(job.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(job.Items))
	}
	var up *Item
	for i := range job.Items {
		if job.Items[i].Name == "up" {
			up = &job.Items[i]
		}
	}
	if up == nil || !bytes.Equal(up.Body, mtx) {
		t.Fatalf("upload body not round-tripped: %+v", up)
	}
	if up.Workload != "cc" || up.Seed != 3 {
		t.Errorf("manifest params not merged onto upload: %+v", up)
	}
	if want := "upload:" + Fingerprint(mtx); up.Key() != want {
		t.Errorf("key = %q, want %q", up.Key(), want)
	}
}

func TestMultipartStandaloneParts(t *testing.T) {
	// Parts with no manifest entry become items with default params.
	mtx := []byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
	body, ct, err := EncodeRequest([]Item{{Name: "solo", Body: mtx}})
	if err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	job, err := ParseRequest(postReq(t, ct, body), 0, 0)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(job.Items) != 1 || job.Items[0].Name != "solo" || job.Items[0].Body == nil {
		t.Fatalf("job = %+v", job)
	}
}

func TestMultipartRejectsDatasetPlusUpload(t *testing.T) {
	mtx := []byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
	// Hand-build a conflicting job: manifest says dataset, part says upload.
	items := []Item{{Name: "x", Dataset: "qcd5_4"}}
	manifestJSON, _ := json.Marshal(struct {
		Items []Item `json:"items"`
	}{items})
	var buf bytes.Buffer
	mw := newTestMultipart(&buf, t, map[string][]byte{ManifestPart: manifestJSON, "x": mtx})
	_, err := ParseRequest(postReq(t, mw, buf.Bytes()), 0, 0)
	var be *Error
	if !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestMultipartMaxBytes(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 4096)
	body, ct, err := EncodeRequest([]Item{{Name: "big", Body: big}})
	if err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	_, err = ParseRequest(postReq(t, ct, body), 0, 1024)
	var be *Error
	if !errors.As(err, &be) || be.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413", err)
	}
}

// newTestMultipart writes parts in map-iteration-independent order
// (manifest first) and returns the content type.
func newTestMultipart(buf *bytes.Buffer, t *testing.T, parts map[string][]byte) string {
	t.Helper()
	mw := multipart.NewWriter(buf)
	if b, ok := parts[ManifestPart]; ok {
		w, err := mw.CreateFormField(ManifestPart)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(b)
	}
	for name, b := range parts {
		if name == ManifestPart {
			continue
		}
		w, err := mw.CreateFormFile(name, name+".mtx")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(b)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType()
}

func TestNegotiate(t *testing.T) {
	for accept, want := range map[string]Mode{
		"":                                    ModeBuffered,
		"application/json":                    ModeBuffered,
		"application/x-ndjson":                ModeNDJSON,
		"application/ndjson":                  ModeNDJSON,
		"text/event-stream":                   ModeSSE,
		"text/event-stream;q=0.9":             ModeSSE,
		"application/json, text/event-stream": ModeSSE,
		"*/*":                                 ModeBuffered,
	} {
		if got := Negotiate(accept); got != want {
			t.Errorf("Negotiate(%q) = %v, want %v", accept, got, want)
		}
	}
}

func TestWriterNDJSONStreamsAndDecodes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, ModeNDJSON)
	events := []Event{
		{Type: EventCoarse, Item: "a", Estimate: json.RawMessage(`{"threshold":42}`)},
		{Type: EventRefined, Item: "a", Estimate: json.RawMessage(`{"threshold":40.5}`)},
		{Type: EventError, Item: "b", Code: CodeDeadline, Error: "budget expired"},
		{Type: EventSummary, Summary: &Summary{Items: 2, Completed: 1, Failed: 1, Admissions: 1}},
	}
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var got []Event
	if err := ReadEvents(&buf, func(e Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d events, want 4", len(got))
	}
	if got[0].Type != EventCoarse || got[0].Item != "a" {
		t.Errorf("event 0 = %+v", got[0])
	}
	if !got[1].Terminal() || got[1].Terminal() == got[0].Terminal() {
		t.Errorf("terminality wrong: coarse=%v refined=%v", got[0].Terminal(), got[1].Terminal())
	}
	if got[2].Code != CodeDeadline {
		t.Errorf("event 2 code = %q", got[2].Code)
	}
	if got[3].Summary == nil || got[3].Summary.Admissions != 1 {
		t.Errorf("summary = %+v", got[3].Summary)
	}
}

func TestWriterSSEFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, ModeSSE)
	if err := w.Emit(Event{Type: EventCoarse, Item: "a"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "event: coarse\ndata: {") || !strings.HasSuffix(out, "}\n\n") {
		t.Fatalf("SSE frame = %q", out)
	}
}

func TestWriterBuffered(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, ModeBuffered)
	w.Emit(Event{Type: EventRefined, Item: "a", Estimate: json.RawMessage(`{"threshold":1}`)})
	w.Emit(Event{Type: EventSummary, Summary: &Summary{Items: 1, Completed: 1, Admissions: 1}})
	if buf.Len() != 0 {
		t.Fatalf("buffered writer wrote before Close: %q", buf.String())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Events  []Event  `json:"events"`
		Summary *Summary `json:"summary"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		t.Fatalf("unmarshal: %v (%q)", err, buf.String())
	}
	if len(body.Events) != 1 || body.Summary == nil || body.Summary.Items != 1 {
		t.Fatalf("body = %+v", body)
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{}, ModeNDJSON)
	if err := w.Emit(Event{Type: EventCoarse, Item: "a"}); err == nil {
		t.Fatal("want write error")
	}
	if err := w.Emit(Event{Type: EventRefined, Item: "a"}); err == nil {
		t.Fatal("want sticky error on second emit")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestReadEventsLargeLines(t *testing.T) {
	big := strings.Repeat("x", 200*1024)
	line, _ := json.Marshal(Event{Type: EventRefined, Item: "a", Error: big})
	var n int
	if err := ReadEvents(bytes.NewReader(append(line, '\n')), func(Event) error {
		n++
		return nil
	}); err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if n != 1 {
		t.Fatalf("events = %d", n)
	}
}

// TestFingerprintGolden pins the upload key of fixed bodies, so a
// change of hash cannot slip through as a refactor: every routing,
// cache and store key would move with it. Each pinned key is also
// recomputed from crypto/sha256 here, so the pins state the
// definition: "upload:" and the first 8 digest bytes in hex.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty", []byte{}, "upload:e3b0c44298fc1c14"},
		{"one byte", []byte("\n"), "upload:01ba4719c80b6fe9"},
		{"matrix market", []byte("%%MatrixMarket matrix coordinate real general\n" +
			"3 3 4\n1 1 2.0\n2 1 -1.5\n3 2 0.25\n3 3 4.0\n"), "upload:9c72b4cbf0229301"},
	} {
		sum := sha256.Sum256(tc.body)
		if def := "upload:" + hex.EncodeToString(sum[:8]); def != tc.want {
			t.Errorf("%s: pinned key %s, but SHA-256 gives %s", tc.name, tc.want, def)
		}
		if got := InputKey("ignored", tc.body); got != tc.want {
			t.Errorf("%s: InputKey = %s, want %s", tc.name, got, tc.want)
		}
		if got := "upload:" + Fingerprint(tc.body); got != tc.want {
			t.Errorf("%s: Fingerprint gives %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := InputKey("cant", nil); got != "dataset:cant" {
		t.Errorf("InputKey without a body = %s, want dataset:cant", got)
	}
}

var fingerprintSink string

// BenchmarkFingerprint reports the hashing speed (MB/s) on bodies the
// size of the 2k- and 20k-row uploads the end-to-end benchmark sends.
func BenchmarkFingerprint(b *testing.B) {
	for _, size := range []int{570_000, 6_000_000} {
		body := make([]byte, 0, size)
		for i := 0; len(body) < size; i++ {
			body = fmt.Appendf(body, "%d %d %d.5\n", i%20000+1, i*7919%20000+1, i%97)
		}
		body = body[:size]
		b.Run(fmt.Sprintf("%.2fMB", float64(size)/1e6), func(b *testing.B) {
			b.SetBytes(int64(size))
			for range b.N {
				fingerprintSink = Fingerprint(body)
			}
		})
	}
}

// TestMultipartPartsKeepOwnBodies: every part is read through one
// reused buffer, so each item must keep an exact-size copy of its own
// bytes — a later, shorter or empty part may not show through an
// earlier item's body, and an empty part is still an upload.
func TestMultipartPartsKeepOwnBodies(t *testing.T) {
	sizes := []int{70 << 10, 0, 3, 20 << 10, 1, 150 << 10, 5 << 10, 0}
	items := make([]Item, len(sizes))
	for k, n := range sizes {
		b := bytes.Repeat([]byte{byte('a' + k)}, n)
		items[k] = Item{Name: fmt.Sprintf("u%d", k), Workload: "spmm", Body: b}
	}
	body, ct, err := EncodeRequest(items)
	if err != nil {
		t.Fatal(err)
	}
	job, err := ParseRequest(postReq(t, ct, body), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Items) != len(items) {
		t.Fatalf("items = %d, want %d", len(job.Items), len(items))
	}
	for k, it := range job.Items {
		if it.Name != items[k].Name || !bytes.Equal(it.Body, items[k].Body) || it.Body == nil {
			t.Errorf("item %d: %q with %d bytes (nil %v), want %q with %d", k, it.Name, len(it.Body), it.Body == nil, items[k].Name, len(items[k].Body))
		}
		if cap(it.Body) != len(it.Body) {
			t.Errorf("item %d: cap %d for %d bytes, want an exact-size copy", k, cap(it.Body), len(it.Body))
		}
	}
}

// TestReadAllConcurrent: concurrent readers share the chunk pool, so
// each must get its own bytes in an exact-size buffer that no later
// read overwrites, at and across chunk boundaries and with short reads.
func TestReadAllConcurrent(t *testing.T) {
	sizes := []int{0, 1, bodyChunk - 1, bodyChunk, bodyChunk + 1, 2*bodyChunk + 7}
	const rounds = 3
	got := make([][]byte, rounds*len(sizes))
	var wg sync.WaitGroup
	for k, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := bytes.Repeat([]byte{byte('a' + k)}, n)
			for r := range rounds {
				b, err := ReadAll(iotest.HalfReader(bytes.NewReader(body)))
				if err != nil {
					t.Error(err)
				}
				got[r*len(sizes)+k] = b
			}
		}()
	}
	wg.Wait()
	for i, b := range got {
		k := i % len(sizes)
		want := bytes.Repeat([]byte{byte('a' + k)}, sizes[k])
		if !bytes.Equal(b, want) || b == nil || cap(b) != len(b) {
			t.Errorf("%d-byte body, round %d: got %d bytes (cap %d, nil %v)", sizes[k], i/len(sizes), len(b), cap(b), b == nil)
		}
	}
}
