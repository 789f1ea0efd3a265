package rpc

// Client half of the resumable upload API. UploadDatasetResumable is the
// high-level entry: it finds or opens a session, verifies what the server
// already has (by hashing the local prefix — never by re-sending it),
// appends the remainder in chunks, retries through disconnects, and
// commits. The low-level session calls (CreateUpload, AppendUpload,
// CommitUpload, ...) are exported for callers that manage their own pacing.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// DefaultUploadChunk is the default resumable-upload append size. Each
// chunk is one PUT: a disconnect costs at most the bytes of the chunk in
// flight, everything before it is already verified server-side.
const DefaultUploadChunk = 4 << 20

// WithUploadChunkSize sets the resumable-upload chunk size (default
// DefaultUploadChunk). Tests shrink it to exercise multi-chunk flows.
func WithUploadChunkSize(n int64) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.uploadChunk = n
		}
	}
}

// SeekablePart is one data part of a resumable upload. Resume needs random
// access: the client re-reads the local prefix to verify the server's
// running hash and seeks past what the server already holds.
type SeekablePart struct {
	Field string
	R     io.ReadSeeker
}

// CreateUpload opens a resumable upload session for a named dataset.
func (c *Client) CreateUpload(ctx context.Context, name, family string) (UploadInfo, error) {
	var info UploadInfo
	err := c.do(ctx, http.MethodPost, "/api/v2/uploads", UploadCreateRequest{Name: name, Family: family}, &info)
	return info, err
}

// Uploads lists the daemon's open upload sessions, oldest first.
func (c *Client) Uploads(ctx context.Context) ([]UploadInfo, error) {
	var list UploadList
	err := c.do(ctx, http.MethodGet, "/api/v2/uploads", nil, &list)
	return list.Uploads, err
}

// Upload fetches one session's state: per-part spooled size and running
// hash — the resume points.
func (c *Client) Upload(ctx context.Context, id string) (UploadInfo, error) {
	var info UploadInfo
	err := c.do(ctx, http.MethodGet, "/api/v2/uploads/"+url.PathEscape(id), nil, &info)
	return info, err
}

// AbortUpload discards a session and its server-side spools.
func (c *Client) AbortUpload(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/api/v2/uploads/"+url.PathEscape(id), nil, nil)
}

// AppendUpload streams one chunk onto a part at the given offset, which
// must equal the part's current spooled size. Returns the part's new state.
func (c *Client) AppendUpload(ctx context.Context, id, field string, offset int64, r io.Reader) (UploadPartInfo, error) {
	path := fmt.Sprintf("/api/v2/uploads/%s?part=%s&offset=%d", url.PathEscape(id), url.QueryEscape(field), offset)
	var info UploadPartInfo
	err := c.send(ctx, http.MethodPut, path, "application/octet-stream", r, &info)
	return info, err
}

// CommitUpload promotes a complete session into the dataset registry.
func (c *Client) CommitUpload(ctx context.Context, id string) (DatasetInfo, error) {
	var info DatasetInfo
	err := c.do(ctx, http.MethodPost, "/api/v2/uploads/"+url.PathEscape(id)+"/commit", nil, &info)
	return info, err
}

// uploadMaxRetries bounds resume attempts that make no progress; a retry
// after any forward progress resets the budget.
const uploadMaxRetries = 4

// UploadDatasetResumable uploads a dataset through the resumable session
// API, surviving disconnects without re-sending verified bytes. If the
// daemon already holds an open session for the same name and family (a
// previous invocation died), the upload resumes it: each part's local
// prefix is re-read and hashed against the server's running digest, and
// only the bytes past the verified offset travel. A prefix mismatch (the
// local file changed) discards the stale session and starts clean.
func (c *Client) UploadDatasetResumable(ctx context.Context, name, family string, parts ...SeekablePart) (DatasetInfo, error) {
	sess, err := c.findOrCreateUpload(ctx, name, family)
	if err != nil {
		return DatasetInfo{}, err
	}
	retries := 0
	for {
		progressed, err := c.pushParts(ctx, sess, parts)
		if err == nil {
			break
		}
		if err == errUploadDiverged {
			// The server's spool is a prefix of something else (the local
			// file changed since the interrupted run). Resume is impossible;
			// replace the session and send from the start.
			_ = c.AbortUpload(ctx, sess.ID)
			if sess, err = c.CreateUpload(ctx, name, family); err != nil {
				return DatasetInfo{}, err
			}
			continue
		}
		if ctx.Err() != nil {
			return DatasetInfo{}, err
		}
		if progressed {
			retries = 0
		} else if retries++; retries > uploadMaxRetries {
			return DatasetInfo{}, err
		}
		// Refresh the resume points and go again.
		refreshed, gerr := c.Upload(ctx, sess.ID)
		if gerr != nil {
			return DatasetInfo{}, fmt.Errorf("resuming upload %s: %w", sess.ID, err)
		}
		sess = refreshed
	}
	return c.CommitUpload(ctx, sess.ID)
}

// errUploadDiverged reports a server spool that is not a prefix of the
// local part.
var errUploadDiverged = fmt.Errorf("rpc: upload session diverged from local data")

// findOrCreateUpload resumes an open session with the same name and family
// if the daemon has one, else opens a fresh session.
func (c *Client) findOrCreateUpload(ctx context.Context, name, family string) (UploadInfo, error) {
	open, err := c.Uploads(ctx)
	if err != nil {
		return UploadInfo{}, err
	}
	for _, u := range open {
		if u.Name == name && u.Family == family {
			return u, nil
		}
	}
	return c.CreateUpload(ctx, name, family)
}

// pushParts appends every part's unsent remainder. It reports whether any
// bytes were accepted this pass, so the caller can distinguish a connection
// that is making progress from one that is stuck.
func (c *Client) pushParts(ctx context.Context, sess UploadInfo, parts []SeekablePart) (progressed bool, err error) {
	remote := make(map[string]UploadPartInfo, len(sess.Parts))
	for _, p := range sess.Parts {
		remote[p.Field] = p
	}
	for _, part := range parts {
		total, err := part.R.Seek(0, io.SeekEnd)
		if err != nil {
			return progressed, err
		}
		offset := int64(0)
		if have, ok := remote[part.Field]; ok && have.Size > 0 {
			// Verify the server's spool is our prefix — by reading locally
			// and comparing digests, never by sending bytes.
			if have.Size > total {
				return progressed, errUploadDiverged
			}
			if _, err := part.R.Seek(0, io.SeekStart); err != nil {
				return progressed, err
			}
			h := sha256.New()
			if _, err := io.CopyN(h, part.R, have.Size); err != nil {
				return progressed, err
			}
			if hex.EncodeToString(h.Sum(nil)) != have.SHA256 {
				return progressed, errUploadDiverged
			}
			offset = have.Size
		}
		if _, err := part.R.Seek(offset, io.SeekStart); err != nil {
			return progressed, err
		}
		for offset < total {
			n := min(c.chunkSize(), total-offset)
			info, err := c.AppendUpload(ctx, sess.ID, part.Field, offset, io.LimitReader(part.R, n))
			if err != nil {
				return progressed, err
			}
			if info.Size > offset {
				progressed = true
			}
			offset = info.Size
			if _, err := part.R.Seek(offset, io.SeekStart); err != nil {
				return progressed, err
			}
		}
	}
	return progressed, nil
}

func (c *Client) chunkSize() int64 {
	if c.uploadChunk > 0 {
		return c.uploadChunk
	}
	return DefaultUploadChunk
}
