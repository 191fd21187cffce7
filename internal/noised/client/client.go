// Package client is the Go client for the noised service: it submits a
// workload case set to POST /v1/analyze, consumes the NDJSON stream of
// per-net records as they complete, and retries idempotent failures —
// 503 shed responses (honoring Retry-After), connect errors, timeouts,
// and streams that die mid-flight — with jittered exponential backoff.
// Analysis is a pure computation over the request body, so a retry can
// never double-apply anything; the client deduplicates nets that a
// retried stream replays.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/noised"
	"repro/internal/noiseerr"
)

// Config assembles a Client. The zero value needs only BaseURL.
type Config struct {
	// BaseURL locates the noised server, e.g. "http://127.0.0.1:8463".
	BaseURL string
	// HTTPClient overrides the transport (nil uses http.DefaultClient;
	// note the default has no overall timeout, which is what a
	// long-lived analysis stream wants).
	HTTPClient *http.Client
	// MaxAttempts bounds the total tries per Analyze call (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 200ms); each retry
	// doubles it up to MaxBackoff (default 10s), with ±50% jitter. A
	// 503's Retry-After hint overrides the computed delay when larger,
	// capped at MaxRetryAfter and jittered like any other delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetryAfter caps the server's Retry-After hint (default 30s). A
	// misbehaving or malicious server must not be able to park the
	// client for an hour by sending "Retry-After: 3600".
	MaxRetryAfter time.Duration
	// Logf receives retry decisions (nil = silent).
	Logf func(format string, args ...any)
	// Wire selects the stream encoding to request: "" or "ndjson" for
	// the JSON lines default, "colblob" to negotiate the compact binary
	// framing (Accept: application/x-noise-colblob). The client decodes
	// whatever Content-Type the server actually answers with, so a
	// server predating the binary wire degrades cleanly to NDJSON.
	Wire string
}

// Options are the per-request query parameters of an analyze call; zero
// values defer to the server's configured defaults.
type Options struct {
	Hold       string        // "" | "thevenin" | "transient"
	Align      string        // "" | "exhaustive" | "input" | "prechar"
	Rescue     *bool         // nil defers to the server default
	NetTimeout time.Duration // per-net budget (0 = server default)
	Timeout    time.Duration // per-request deadline (0 = server cap)
	// RequestID names the request for server-side journaling: retries
	// with the same ID resume from the server's journal instead of
	// re-analyzing completed nets.
	RequestID string
}

// query renders the options as a URL query string.
func (o Options) query() string {
	q := url.Values{}
	if o.Hold != "" {
		q.Set("hold", o.Hold)
	}
	if o.Align != "" {
		q.Set("align", o.Align)
	}
	if o.Rescue != nil {
		q.Set("rescue", strconv.FormatBool(*o.Rescue))
	}
	if o.NetTimeout > 0 {
		q.Set("net_timeout", o.NetTimeout.String())
	}
	if o.Timeout > 0 {
		q.Set("timeout", o.Timeout.String())
	}
	if o.RequestID != "" {
		q.Set("request_id", o.RequestID)
	}
	return q.Encode()
}

// Result is the merged outcome of an analyze call, retries included.
type Result struct {
	// Reports carries one report per net, in stream completion order of
	// the first attempt that finished it (rec.Report() reconstructed, so
	// it renders identically to a local clarinet run).
	Reports []clarinet.NetReport
	// Summary is the terminal summary line of the attempt that
	// completed the stream.
	Summary noised.Summary
	// Attempts counts the HTTP requests made, 1 for a clean run.
	Attempts int
}

// Client is a retrying noised client; the zero value is not usable,
// build one with New. It is safe for concurrent use.
type Client struct {
	cfg Config
}

// jitter is the randomness seam of the backoff schedule; tests pin it.
var jitter = rand.Float64

// New builds a client (see Config for zero-value defaults).
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, noiseerr.Invalidf("client: BaseURL required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, noiseerr.Invalidf("client: bad BaseURL %q: %w", cfg.BaseURL, err)
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 10 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	switch cfg.Wire {
	case "", "ndjson", "colblob":
	default:
		return nil, noiseerr.Invalidf("client: unknown wire %q (want ndjson or colblob)", cfg.Wire)
	}
	return &Client{cfg: cfg}, nil
}

// retryableError marks a failure worth another attempt; permanent
// failures (4xx, malformed streams the server will reproduce) are
// returned bare.
type retryableError struct {
	err error
	// after is the server's Retry-After hint (0 = none).
	after time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Analyze submits the serialized case file (the netgen/workload JSON
// schema) and consumes the result stream. onRecord, when non-nil, is
// invoked for each net's record as it arrives — at most once per net
// across retries, except that a canceled net superseded by a real
// outcome on a later attempt is delivered again.
func (c *Client) Analyze(ctx context.Context, cases []byte, opt Options, onRecord func(clarinet.JournalRecord)) (*Result, error) {
	u := c.cfg.BaseURL + "/v1/analyze"
	if q := opt.query(); q != "" {
		u += "?" + q
	}
	res := &Result{}
	// seen maps net → index in res.Reports, deduplicating the replays a
	// retried stream produces (from the server journal or recomputation).
	seen := map[string]int{}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			var rerr *retryableError
			errors.As(lastErr, &rerr)
			delay := c.backoff(attempt, rerr)
			// A backoff the context deadline cannot outlive is a wasted
			// sleep: fail now, with the real failure attached, instead of
			// blocking until the deadline converts it into a bare
			// context error.
			if deadline, ok := ctx.Deadline(); ok {
				if left := time.Until(deadline); left <= delay {
					return res, fmt.Errorf("client: deadline (%v left) precedes the %v retry backoff: %w",
						left.Round(time.Millisecond), delay.Round(time.Millisecond), lastErr)
				}
			}
			c.cfg.Logf("client: attempt %d/%d failed (%v); retrying in %v",
				attempt, c.cfg.MaxAttempts, lastErr, delay.Round(time.Millisecond))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return res, ctx.Err()
			}
		}
		res.Attempts++
		done, err := c.attempt(ctx, u, cases, res, seen, onRecord)
		if done {
			return res, err
		}
		lastErr = err
		var rerr *retryableError
		if !errors.As(lastErr, &rerr) {
			return res, lastErr
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
	return res, fmt.Errorf("client: giving up after %d attempts: %w", res.Attempts, lastErr)
}

// backoff computes the next retry delay: exponential, floored by the
// server's Retry-After hint (capped at MaxRetryAfter so a misbehaving
// server cannot park the client), then ±50% jitter over the whole
// thing — the hint too, so a fleet of shed clients never reconverges on
// the server at the same instant.
func (c *Client) backoff(attempt int, rerr *retryableError) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	if rerr != nil {
		hint := rerr.after
		if hint > c.cfg.MaxRetryAfter {
			hint = c.cfg.MaxRetryAfter
		}
		if hint > d {
			d = hint
		}
	}
	return time.Duration(float64(d) * (0.5 + jitter()))
}

// attempt runs one HTTP request and folds its stream into res. done
// reports a final outcome (success or permanent failure); otherwise the
// returned error is retryable.
func (c *Client) attempt(ctx context.Context, u string, cases []byte, res *Result, seen map[string]int, onRecord func(clarinet.JournalRecord)) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(cases))
	if err != nil {
		return true, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.Wire == "colblob" {
		req.Header.Set("Accept", clarinet.ContentTypeColblob)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, &retryableError{err: fmt.Errorf("client: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		body := strings.TrimSpace(string(snippet))
		switch resp.StatusCode {
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout, http.StatusTooManyRequests:
			return false, &retryableError{
				err:   noiseerr.Internalf("client: server answered %s: %s", resp.Status, body),
				after: noised.ParseRetryAfter(resp.Header.Get("Retry-After")),
			}
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// The server rejected the request itself; retrying the same
			// bytes cannot help.
			return true, noiseerr.Invalidf("client: server answered %s: %s", resp.Status, body)
		}
		return true, noiseerr.Internalf("client: server answered %s: %s", resp.Status, body)
	}
	// Decode by what the server actually sent, not what was requested:
	// an NDJSON-only server answering a colblob Accept still works.
	if strings.HasPrefix(resp.Header.Get("Content-Type"), clarinet.ContentTypeColblob) {
		done, err = c.consumeColblob(resp.Body, res, seen, onRecord)
	} else {
		done, err = c.consumeNDJSON(resp.Body, res, seen, onRecord)
	}
	if done || err == nil {
		return done, err
	}
	if ctx.Err() != nil {
		return true, ctx.Err()
	}
	return false, err
}

// consumeNDJSON folds the JSON lines wire into res. A nil error with
// done=true means the summary arrived; done=false errors are
// retryable.
func (c *Client) consumeNDJSON(body io.Reader, res *Result, seen map[string]int, onRecord func(clarinet.JournalRecord)) (bool, error) {
	sc := noised.Analyze.Scanner(body)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, sum, err := noised.Analyze.Decode(line)
		if err != nil {
			return false, &retryableError{err: fmt.Errorf("client: malformed stream line: %w", err)}
		}
		if sum != nil {
			return true, c.finish(res, *sum)
		}
		if rec.Net == "" {
			continue
		}
		c.fold(res, seen, rec, onRecord)
	}
	err := sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF // stream ended without a summary line
	}
	return false, &retryableError{err: fmt.Errorf("client: stream interrupted: %w", err)}
}

// consumeColblob folds the binary wire into res: record frames decode
// through the shared clarinet binary codec (stateful — records chain on
// their predecessors within one response stream), the summary frame
// carries the same JSON summary the NDJSON wire ends with.
func (c *Client) consumeColblob(body io.Reader, res *Result, seen map[string]int, onRecord func(clarinet.JournalRecord)) (bool, error) {
	fr := colblob.NewFrameReader(body)
	var dec clarinet.BinaryRecordDecoder
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			// EOF, a torn tail, or frame corruption: the summary never
			// arrived, so the stream was interrupted — retry.
			return false, &retryableError{err: fmt.Errorf("client: stream interrupted: %w", err)}
		}
		switch kind {
		case colblob.FrameRecord:
			rec, err := dec.Decode(payload)
			if err != nil {
				return false, &retryableError{err: fmt.Errorf("client: malformed stream record: %w", err)}
			}
			if rec.Net == "" {
				continue
			}
			c.fold(res, seen, rec, onRecord)
		case colblob.FrameSummary:
			var sum noised.Summary
			if err := json.Unmarshal(payload, &sum); err != nil {
				return false, &retryableError{err: fmt.Errorf("client: malformed stream summary: %w", err)}
			}
			return true, c.finish(res, sum)
		}
	}
}

// finish records the terminal summary and maps a deadline-cut stream
// onto its error.
func (c *Client) finish(res *Result, sum noised.Summary) error {
	res.Summary = sum
	if sum.Deadline {
		return fmt.Errorf("client: %w: server request deadline cut the stream short (%d of %d nets)",
			noiseerr.ErrDeadline, sum.OK+sum.Failed, sum.Nets)
	}
	return nil
}

// fold merges one record into the result set. The first real outcome
// for a net wins; a canceled placeholder is superseded by a later real
// outcome (the whole point of retrying an interrupted stream).
func (c *Client) fold(res *Result, seen map[string]int, rec clarinet.JournalRecord, onRecord func(clarinet.JournalRecord)) {
	rep, ok := rec.Report()
	if !ok {
		return // torn line; the retry will replay it intact
	}
	if i, dup := seen[rec.Net]; dup {
		prevCanceled := noiseerr.Class(res.Reports[i].Err) == noiseerr.ErrCanceled
		if !prevCanceled || rec.Class == "canceled" {
			return
		}
		res.Reports[i] = rep
	} else {
		seen[rec.Net] = len(res.Reports)
		res.Reports = append(res.Reports, rep)
	}
	if onRecord != nil {
		onRecord(rec)
	}
}
