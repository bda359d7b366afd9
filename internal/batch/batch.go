// Package batch is the multi-item estimation job abstraction shared by
// hetserve and hetgate. A single /estimate request carries exactly one
// matrix; a portfolio of inputs paid pool admission, workload
// construction and an HTTP round trip per item. POST /estimate-batch
// instead carries many named items in one job — a JSON manifest of
// known dataset names, a multipart upload of MatrixMarket bodies, or a
// mix — and results stream back progressively as NDJSON/SSE events: a
// coarse estimate per item as soon as the static split or a
// threshold-store warm start lands, a refined event when the fine
// sweep completes, and a job summary trailer.
//
// This package holds the pieces both daemons agree on: the item and
// event wire forms, request parsing with duplicate-name rejection and
// size limits, content negotiation between buffered JSON and the two
// streaming encodings, and the incremental event decoder the gateway
// uses to re-merge backend streams. The serving policy (admission,
// deadline carving, fan-out, hedging) lives with each daemon.
package batch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
)

// Limits bound one batch job so a single oversized request cannot
// starve the admission queue behind it.
const (
	// DefaultMaxItems is the per-job item ceiling when the daemon
	// leaves it unset.
	DefaultMaxItems = 64
)

// Item is one named estimation task inside a batch job. Exactly one of
// Dataset (a named Table II replica) or Body (an uploaded MatrixMarket
// matrix, carried as a multipart part) identifies the input.
type Item struct {
	// Name identifies the item inside the job; every event for this
	// item carries it. Names must be unique within a job.
	Name string `json:"name"`
	// Workload selects the estimation workload (cc, spmm, scalefree);
	// empty means the serving daemon's default.
	Workload string `json:"workload,omitempty"`
	// Dataset names a known replica; empty when the item's input is an
	// uploaded body.
	Dataset string `json:"dataset,omitempty"`
	// Searcher, Seed and Repeats mirror the /estimate query
	// parameters; zero values mean the daemon defaults.
	Searcher string `json:"searcher,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Repeats  int    `json:"repeats,omitempty"`
	// Features is an optional structural-feature hint in
	// store.Features wire form, forwarded per item exactly as the
	// X-Het-Features header is on single requests.
	Features string `json:"features,omitempty"`

	// Body is an uploaded MatrixMarket matrix (multipart jobs only);
	// never serialized into the manifest.
	Body []byte `json:"-"`
}

// Key returns the item's routing/caching input identity (InputKey).
func (it Item) Key() string { return InputKey(it.Dataset, it.Body) }

// InputKey is the input identity hetserve keys its result cache and
// threshold store by and hetgate shards on: "upload:<fingerprint>" for
// an uploaded body (any non-nil body), "dataset:<name>" otherwise.
// Every single request and batch item derives its identity here, so
// batched and single-request traffic agree on input placement.
func InputKey(dataset string, body []byte) string {
	if body != nil {
		const prefix = "upload:"
		var key [len(prefix) + fingerprintLen]byte
		copy(key[:], prefix)
		putFingerprint(key[len(prefix):], body)
		return string(key[:])
	}
	return "dataset:" + dataset
}

// Job is a parsed batch request.
type Job struct {
	Items []Item
}

// fingerprintLen is the length of a Fingerprint in hex digits.
const fingerprintLen = 16

// Fingerprint names an uploaded body without retaining its bytes: the
// first 8 bytes of its SHA-256 digest in lower-case hex. It is the
// only upload identity (through InputKey), so gateway routing and
// coalescing, batch placement, the result cache and the threshold
// store can never disagree about which upload is which.
//
// The key guarantees:
//   - Identical bodies get identical keys, in every process and on
//     every host.
//   - Two distinct bodies share a key by accident with probability
//     2⁻⁶⁴ per pair.
//   - Finding a body with the same key as a given body costs about
//     2⁶⁴ SHA-256 evaluations, so an upload cannot be crafted to take
//     over another client's cache or store entry.
//   - Two colliding bodies that are both chosen freely take about 2³²
//     evaluations. Such a pair only shares one cache entry between
//     uploads its author sent.
//
// Go hashes with the CPU's SHA extensions where it has them.
func Fingerprint(b []byte) string {
	var fp [fingerprintLen]byte
	putFingerprint(fp[:], b)
	return string(fp[:])
}

// putFingerprint writes b's fingerprint into dst[:fingerprintLen].
func putFingerprint(dst, b []byte) {
	sum := sha256.Sum256(b)
	hex.Encode(dst, sum[:fingerprintLen/2])
}

// Error is a batch-request rejection with the HTTP status it should
// surface as: 413 for limit violations, 400 for everything else.
type Error struct {
	Status int
	Code   string // machine-readable class: too_many_items, too_large, duplicate_item, bad_manifest, empty
	msg    string
}

func (e *Error) Error() string { return e.msg }

func badJob(code, format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: code, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(code, format string, args ...any) *Error {
	return &Error{Status: http.StatusRequestEntityTooLarge, Code: code, msg: fmt.Sprintf(format, args...)}
}

// readErr classifies a body-read failure: an http.MaxBytesReader trip
// (daemons wrap r.Body in one) is a limit violation, everything else
// is client framing.
func readErr(err error, what string) *Error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return tooLarge("too_large", "batch body exceeds %d bytes", mbe.Limit)
	}
	return badJob("bad_manifest", "%s: %v", what, err)
}

// bodyChunk is the size of the pooled chunks ReadAll reads through, and
// so the most it holds beyond the bytes that have arrived.
const bodyChunk = 1 << 20

var chunkPool = sync.Pool{New: func() any { return new([bodyChunk]byte) }}

// ReadAll reads r to EOF and returns its bytes in a fresh, non-nil
// slice whose capacity equals its length, or nil and the first read
// error. The bytes gather in pooled fixed-size chunks and are copied
// out once, so a body costs one exact-size allocation on a warm pool,
// and a sender that declares much and sends little holds memory only
// in proportion to what it sent.
func ReadAll(r io.Reader) ([]byte, error) {
	held := make([]*[bodyChunk]byte, 0, 16) // on the stack up to 16 MiB
	defer func() {
		for _, c := range held {
			chunkPool.Put(c)
		}
	}()
	n := 0
	for {
		if n == len(held)*bodyChunk {
			held = append(held, chunkPool.Get().(*[bodyChunk]byte))
		}
		m, err := r.Read(held[len(held)-1][n%bodyChunk:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	b := make([]byte, n)
	for k, c := range held {
		copy(b[k*bodyChunk:], c[:])
	}
	return b, nil
}

// manifest is the JSON wire form of a job: {"items":[...]}.
type manifest struct {
	Items []Item `json:"items"`
}

// ParseRequest reads one batch job from an /estimate-batch request
// body: a JSON manifest (application/json) or a multipart upload
// (multipart/form-data) whose "manifest" part carries the JSON and
// whose other parts carry MatrixMarket bodies keyed by part name. A
// body part completes the manifest item of the same name, or stands
// alone as an item with daemon-default parameters.
//
// maxItems <= 0 means DefaultMaxItems; maxBytes bounds the total bytes
// read (callers should additionally wrap r.Body in MaxBytesReader so
// the transport gives up early). Violations return *Error with status
// 413; malformed jobs — duplicate names, no items, an item naming both
// a dataset and an upload — return *Error with status 400.
func ParseRequest(r *http.Request, maxItems int, maxBytes int64) (*Job, error) {
	if maxItems <= 0 {
		maxItems = DefaultMaxItems
	}
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if err != nil && ct != "" {
		return nil, badJob("bad_manifest", "unparseable Content-Type %q: %v", ct, err)
	}
	var job *Job
	switch {
	case strings.HasPrefix(mediaType, "multipart/"):
		job, err = parseMultipart(r.Body, params["boundary"], maxItems, maxBytes)
	default:
		job, err = parseManifest(r.Body, maxBytes)
	}
	if err != nil {
		return nil, err
	}
	return job, validate(job, maxItems)
}

// parseManifest decodes a pure-JSON job (named datasets only).
func parseManifest(body io.Reader, maxBytes int64) (*Job, error) {
	rd := body
	if maxBytes > 0 {
		rd = io.LimitReader(body, maxBytes+1)
	}
	raw, err := ReadAll(rd)
	if err != nil {
		return nil, readErr(err, "reading manifest")
	}
	if maxBytes > 0 && int64(len(raw)) > maxBytes {
		return nil, tooLarge("too_large", "batch body exceeds %d bytes", maxBytes)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, badJob("bad_manifest", "parsing manifest: %v", err)
	}
	return &Job{Items: m.Items}, nil
}

// ManifestPart is the reserved multipart part name carrying the JSON
// manifest; every other part is an uploaded item body.
const ManifestPart = "manifest"

// parseMultipart decodes a multipart job: an optional manifest part
// plus body parts keyed by part name.
func parseMultipart(body io.Reader, boundary string, maxItems int, maxBytes int64) (*Job, error) {
	if boundary == "" {
		return nil, badJob("bad_manifest", "multipart batch without a boundary")
	}
	cr := &countingReader{r: body}
	var rd io.Reader = cr
	if maxBytes > 0 {
		rd = io.LimitReader(cr, maxBytes+1)
	}
	// overLimit: truncation by the limit reader surfaces as an
	// unexpected-EOF somewhere inside the multipart decoder; attribute
	// any error after the limit was consumed to the limit, not the
	// client's framing.
	overLimit := func() bool { return maxBytes > 0 && cr.n > maxBytes }
	mr := multipart.NewReader(rd, boundary)
	job := &Job{}
	bodies := make(map[string][]byte)
	var order []string // part arrival order, so item order is stable
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			if overLimit() {
				return nil, tooLarge("too_large", "batch body exceeds %d bytes", maxBytes)
			}
			return nil, readErr(err, "reading multipart body")
		}
		name := p.FormName()
		part, err := ReadAll(p)
		if err != nil {
			if overLimit() {
				return nil, tooLarge("too_large", "batch body exceeds %d bytes", maxBytes)
			}
			return nil, readErr(err, fmt.Sprintf("reading part %q", name))
		}
		if name == ManifestPart {
			var m manifest
			if err := json.Unmarshal(part, &m); err != nil {
				return nil, badJob("bad_manifest", "parsing manifest part: %v", err)
			}
			if job.Items != nil {
				return nil, badJob("bad_manifest", "multiple manifest parts")
			}
			job.Items = m.Items
			continue
		}
		if name == "" {
			return nil, badJob("bad_manifest", "multipart part without a name")
		}
		if _, dup := bodies[name]; dup {
			return nil, badJob("duplicate_item", "duplicate upload part %q", name)
		}
		if len(bodies) >= maxItems {
			return nil, tooLarge("too_many_items", "batch exceeds %d items", maxItems)
		}
		// ReadAll never returns nil: an empty part is still an upload.
		bodies[name] = part
		order = append(order, name)
	}
	// Attach bodies to their manifest items; leftover parts become
	// stand-alone items with daemon-default parameters, in part order.
	claimed := make(map[string]bool, len(bodies))
	for i := range job.Items {
		it := &job.Items[i]
		if b, ok := bodies[it.Name]; ok {
			if it.Dataset != "" {
				return nil, badJob("bad_manifest", "item %q names both a dataset and an upload part", it.Name)
			}
			it.Body = b
			claimed[it.Name] = true
		}
	}
	for _, name := range order {
		if !claimed[name] {
			job.Items = append(job.Items, Item{Name: name, Body: bodies[name]})
		}
	}
	return job, nil
}

// countingReader counts bytes consumed from the underlying body so the
// multipart path can tell "client sent garbage" apart from "client sent
// more than the limit".
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// validate enforces the structural job invariants shared by both
// daemons.
func validate(job *Job, maxItems int) error {
	if len(job.Items) == 0 {
		return badJob("empty", "batch has no items")
	}
	if len(job.Items) > maxItems {
		return tooLarge("too_many_items", "batch has %d items, limit %d", len(job.Items), maxItems)
	}
	seen := make(map[string]bool, len(job.Items))
	for _, it := range job.Items {
		if it.Name == "" {
			return badJob("bad_manifest", "item without a name")
		}
		if seen[it.Name] {
			return badJob("duplicate_item", "duplicate item name %q", it.Name)
		}
		seen[it.Name] = true
		if it.Dataset == "" && it.Body == nil {
			return badJob("bad_manifest", "item %q names neither a dataset nor an upload part", it.Name)
		}
		if it.Dataset != "" && it.Body != nil {
			return badJob("bad_manifest", "item %q names both a dataset and an upload part", it.Name)
		}
	}
	return nil
}

// EncodeRequest serializes items as an /estimate-batch request body:
// a plain JSON manifest when every item is a named dataset, a
// multipart body otherwise. The gateway uses it to forward sub-batches
// in exactly the wire form a client would send.
func EncodeRequest(items []Item) (body []byte, contentType string, err error) {
	uploads := false
	for _, it := range items {
		if it.Body != nil {
			uploads = true
			break
		}
	}
	// The manifest rides along even for pure uploads: it carries the
	// per-item parameters (workload, seed, searcher, features hint).
	mb, err := json.Marshal(manifest{Items: items})
	if err != nil {
		return nil, "", err
	}
	if !uploads {
		return mb, "application/json", nil
	}
	// Sized up front from the parts, so the body is written once with
	// no re-growth and returned without a copy.
	size := len(mb) + 2*partFramingBytes
	for _, it := range items {
		if it.Body != nil {
			size += len(it.Body) + partFramingBytes + 2*len(it.Name)
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	mw := multipart.NewWriter(buf)
	mp, err := mw.CreateFormField(ManifestPart)
	if err != nil {
		return nil, "", err
	}
	if _, err := mp.Write(mb); err != nil {
		return nil, "", err
	}
	for _, it := range items {
		if it.Body == nil {
			continue
		}
		p, err := mw.CreateFormFile(it.Name, it.Name+".mtx")
		if err != nil {
			return nil, "", err
		}
		if _, err := p.Write(it.Body); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// partFramingBytes bounds one multipart part's framing besides its
// name: the boundary line and the Content-Disposition and Content-Type
// headers.
const partFramingBytes = 192
