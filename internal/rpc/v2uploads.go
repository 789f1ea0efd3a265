package rpc

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"scan/internal/registry"
	"scan/internal/route"
)

// The /api/v2/uploads handlers: resumable dataset uploads. A session is
// opened with the dataset's name and family, parts are appended in offset-
// verified chunks (PUT), and a commit promotes the session into the dataset
// registry atomically. Interrupted appends keep every byte that arrived;
// the session resource reports each part's size and running SHA-256 so a
// resuming client verifies its prefix and continues without re-sending.
//
// Sessions are process-local: a daemon restart discards them (committed
// datasets are what the durable registry preserves).

// maxUploadCreateBody bounds the session-create JSON body.
const maxUploadCreateBody = 4 << 10

// uploadPartLimits returns the decode caps for one session part — the same
// per-family caps the one-shot dataset POST enforces.
func uploadPartLimits(family registry.Family, field string) registry.Limits {
	switch {
	case family == registry.FASTQ && field == "data":
		return uploadLimits(maxUploadReads)
	case family == registry.FASTQ && field == "reference",
		family == registry.Reference && field == "data":
		return uploadLimits(1)
	case family == registry.MGF && field == "peptides":
		return uploadLimits(maxUploadPeptides)
	case family == registry.MGF && field == "spectra":
		return uploadLimits(maxUploadSpectra)
	case family == registry.TIFF && field == "data":
		return uploadLimits(maxUploadFrames)
	default:
		return uploadLimits(maxUploadRows)
	}
}

func uploadInfo(st registry.UploadStatus) UploadInfo {
	info := UploadInfo{
		ID:      st.ID,
		Name:    st.Name,
		Family:  string(st.Family),
		Created: st.Created,
		Parts:   []UploadPartInfo{},
	}
	for _, p := range st.Parts {
		info.Parts = append(info.Parts, UploadPartInfo{Field: p.Field, Size: p.Size, SHA256: p.SHA256})
	}
	return info
}

// admitUploads is admit for the routes that need the session manager. It
// is nil when its spool directory could not be created, and then they
// answer 503 instead of panicking.
func (s *Server) admitUploads(next http.HandlerFunc) http.HandlerFunc {
	return s.admit(func(w http.ResponseWriter, r *http.Request) {
		if s.uploads == nil {
			route.V2.Error(w, http.StatusServiceUnavailable, CodeUnavailable, "upload spool unavailable")
			return
		}
		next(w, r)
	})
}

func (s *Server) handleV2Uploads(w http.ResponseWriter, r *http.Request) {
	list := UploadList{Uploads: []UploadInfo{}}
	for _, st := range s.uploads.List() {
		list.Uploads = append(list.Uploads, uploadInfo(st))
	}
	route.JSON(w, http.StatusOK, list)
}

func (s *Server) handleV2UploadCreate(w http.ResponseWriter, r *http.Request) {
	var req UploadCreateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadCreateBody)).Decode(&req); err != nil {
		route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: %v", err)
		return
	}
	family, err := registry.ParseFamily(req.Family)
	if err != nil {
		route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	}
	// The session will become a dataset; check the count quota at open so
	// a tenant at its limit learns immediately, not at commit.
	if !s.admitDatasetCount(w, requestTenant(r)) {
		return
	}
	u, err := s.uploads.Create(req.Name, family, requestTenantName(r))
	if err != nil {
		writeUploadError(w, err)
		return
	}
	route.JSON(w, http.StatusCreated, uploadInfo(u.Status()))
}

// writeUploadError answers a failed session call (open, look up, append,
// commit) with the status and code of its registry error; anything else —
// a bad name, an undecodable part, a body cut short — is a 400.
func writeUploadError(w http.ResponseWriter, err error) {
	var offErr *registry.OffsetError
	status, code := http.StatusBadRequest, CodeInvalidArgument
	switch {
	case errors.Is(err, registry.ErrNoUpload):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, registry.ErrDuplicateName), errors.As(err, &offErr):
		status, code = http.StatusConflict, CodeConflict
	case errors.Is(err, registry.ErrTooManyUploads):
		status, code = http.StatusTooManyRequests, CodeUnavailable
	case errors.Is(err, registry.ErrStoreFull):
		status, code = http.StatusInsufficientStorage, CodeUnavailable
	}
	route.V2.Error(w, status, code, "%v", err)
}

// session resolves the {id} upload session, answering 404 itself when
// there is none.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*registry.UploadSession, bool) {
	u, err := s.uploads.Get(r.PathValue("id"))
	if err != nil {
		writeUploadError(w, err)
	}
	return u, err == nil
}

func (s *Server) handleV2Upload(w http.ResponseWriter, r *http.Request) {
	if u, ok := s.session(w, r); ok {
		route.JSON(w, http.StatusOK, uploadInfo(u.Status()))
	}
}

func (s *Server) abortUpload(w http.ResponseWriter, r *http.Request) {
	u, ok := s.session(w, r)
	if !ok || !s.authorizeUpload(w, r, u) {
		return
	}
	u.Abort()
	w.WriteHeader(http.StatusNoContent)
}

// appendUpload spools one chunk: PUT /api/v2/uploads/{id}?part=F&offset=N.
// The offset must equal the part's spooled size; a mismatch is a 409 whose
// message carries the real offset, and the session GET reports it too. The
// response is the part's new status — size and running hash — whether or not
// the body arrived whole, so a client whose send died mid-chunk learns its
// resume point from the same response path.
func (s *Server) appendUpload(w http.ResponseWriter, r *http.Request) {
	u, ok := s.session(w, r)
	if !ok || !s.authorizeUpload(w, r, u) {
		return
	}
	q := r.URL.Query()
	field := q.Get("part")
	if field == "" {
		route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "append needs a ?part= field name")
		return
	}
	offset := int64(0)
	if raw := q.Get("offset"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "bad offset %q", raw)
			return
		}
		offset = v
	}
	if _, err := u.Append(field, offset, r.Body); err != nil {
		// After a mid-body read error the spooled prefix is kept; the part
		// status rides along in the session resource.
		writeUploadError(w, err)
		return
	}
	for _, p := range u.Status().Parts {
		if p.Field == field {
			route.JSON(w, http.StatusOK, UploadPartInfo{Field: p.Field, Size: p.Size, SHA256: p.SHA256})
			return
		}
	}
	route.V2.Error(w, http.StatusInternalServerError, CodeInternal, "part %q vanished", field)
}

// commitUpload promotes the session into the registry. Validation failures
// (missing parts, undecodable payloads, name conflicts) leave the session
// open for inspection or abort; success and post-validation failures end it.
func (s *Server) commitUpload(w http.ResponseWriter, r *http.Request) {
	u, ok := s.session(w, r)
	if !ok || !s.authorizeUpload(w, r, u) {
		return
	}
	meta, err := u.Commit()
	if err != nil {
		writeUploadError(w, err)
		return
	}
	if s.settleDatasetQuota(w, requestTenant(r), meta.ID, meta.Bytes) {
		route.JSON(w, http.StatusCreated, datasetInfo(meta))
	}
}
