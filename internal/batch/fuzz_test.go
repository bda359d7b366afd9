package batch

import (
	"bytes"
	"mime"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// fuzzMaxItems is the item ceiling FuzzParseRequest parses under, small
// enough that the fuzzer reaches the too_many_items paths.
const fuzzMaxItems = 4

// parseFuzzBody runs ParseRequest on body, sent as a JSON manifest or
// as a multipart body with the given boundary, under fuzzMaxItems and
// a 64 KiB byte limit.
func parseFuzzBody(multipart bool, boundary string, body []byte) (*Job, error) {
	r := httptest.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(body))
	ct := "application/json"
	if multipart {
		ct = mime.FormatMediaType("multipart/form-data", map[string]string{"boundary": boundary})
		if ct == "" {
			ct = "multipart/form-data; boundary=" + boundary
		}
	}
	r.Header.Set("Content-Type", ct)
	return ParseRequest(r, fuzzMaxItems, 1<<16)
}

// FuzzParseRequest holds the /estimate-batch reader to its contract on
// any body, JSON manifest or multipart under a fuzzed boundary: it
// never panics, every error is a *Error, an accepted job has 1 to
// fuzzMaxItems items with unique non-empty names each naming exactly
// one of a dataset or a body, and EncodeRequest either refuses the job
// or writes a body that parses back to the same items.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, multipart bool, boundary string, body []byte) {
		job, err := parseFuzzBody(multipart, boundary, body)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("error %v (%T) is not a *batch.Error", err, err)
			}
			return
		}
		if n := len(job.Items); n < 1 || n > fuzzMaxItems {
			t.Fatalf("accepted a job of %d items", n)
		}
		seen := make(map[string]bool)
		for _, it := range job.Items {
			if it.Name == "" || seen[it.Name] {
				t.Fatalf("accepted item name %q (empty or duplicate)", it.Name)
			}
			seen[it.Name] = true
			if (it.Dataset == "") == (it.Body == nil) {
				t.Fatalf("item %q names dataset %q and a body of %d bytes (nil %v)", it.Name, it.Dataset, len(it.Body), it.Body == nil)
			}
		}
		out, ct, err := EncodeRequest(job.Items)
		if err != nil {
			return
		}
		r := httptest.NewRequest(http.MethodPost, "/estimate-batch", bytes.NewReader(out))
		r.Header.Set("Content-Type", ct)
		again, err := ParseRequest(r, fuzzMaxItems, 0)
		if err != nil {
			t.Fatalf("re-encoded job does not parse: %v\n%q", err, out)
		}
		if !reflect.DeepEqual(again.Items, job.Items) {
			t.Fatalf("re-encoded job parses to\n%+v\nwant\n%+v", again.Items, job.Items)
		}
	})
}
