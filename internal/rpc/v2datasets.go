package rpc

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"

	"scan/internal/registry"
	"scan/internal/route"
)

// The /api/v2/datasets handlers: streaming dataset uploads into the
// platform's registry, listing, inspection and deletion. Uploads are
// decoded record-by-record straight off the request body (multipart parts
// are read with MultipartReader, never buffered through ParseMultipartForm),
// so the daemon's memory cost is the decoded records, bounded by the
// per-family caps — not the wire size of the body.

// Per-family decode limits. The synthetic-spec caps bound what the daemon
// will generate; these bound what it will accept, sized a notch above them
// so real uploads of the same magnitude fit.
const (
	maxUploadBytes     = 128 << 20 // any one upload part
	maxUploadReads     = 500000
	maxUploadSpectra   = maxSyntheticSpectra
	maxUploadPeptides  = 3 * maxSyntheticProteins // peptides, not proteins
	maxUploadFrames    = maxSyntheticImages
	maxUploadRows      = maxSyntheticGenes
	maxUploadFieldSize = 256 // name/family form fields
)

func uploadLimits(maxRecords int) registry.Limits {
	return registry.Limits{MaxRecords: maxRecords, MaxBytes: maxUploadBytes}
}

func (s *Server) handleV2Datasets(w http.ResponseWriter, r *http.Request) {
	list := DatasetList{Datasets: []DatasetInfo{}}
	for _, d := range s.platform.Datasets().List() {
		list.Datasets = append(list.Datasets, datasetInfo(d))
	}
	route.JSON(w, http.StatusOK, list)
}

func (s *Server) handleV2Dataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, _, err := s.platform.Datasets().Resolve(id)
	if err != nil {
		route.V2.Error(w, http.StatusNotFound, CodeNotFound, "no dataset %q", id)
		return
	}
	route.JSON(w, http.StatusOK, datasetInfo(meta))
}

func (s *Server) handleV2DatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve first: ownership is on the dataset, and clients may delete by
	// name. The delete then names the resolved id, which is never reused,
	// so a name rebound in between cannot be hit.
	meta, _, err := s.platform.Datasets().Resolve(id)
	if err == nil {
		if !s.authorizeDatasetDelete(w, r, meta) {
			return
		}
		meta, err = s.platform.Datasets().Delete(meta.ID)
	}
	switch {
	case errors.Is(err, registry.ErrNotFound):
		route.V2.Error(w, http.StatusNotFound, CodeNotFound, "no dataset %q", id)
	case errors.Is(err, registry.ErrPinned):
		route.V2.Error(w, http.StatusConflict, CodeConflict,
			"dataset %q is referenced by unfinished jobs; cancel or wait them out", id)
	case err != nil:
		route.V2.Error(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	default:
		route.JSON(w, http.StatusOK, datasetInfo(meta))
	}
}

func datasetInfo(d registry.Dataset) DatasetInfo {
	return DatasetInfo{
		ID:        d.ID,
		Name:      d.Name,
		Family:    string(d.Family),
		Hash:      d.Hash,
		Records:   d.Records,
		Bytes:     d.Bytes,
		Reference: d.Family == registry.FASTQ && d.HasReference,
		Created:   d.Created,
	}
}

// handleV2DatasetUpload stores one uploaded dataset. Two body shapes:
//
//   - multipart/form-data: "name" and "family" fields first, then the data
//     part(s) — "data" for fastq/tiff/feature-table/reference (fastq may
//     add a "reference" FASTA part), "peptides" + "spectra" for mgf.
//   - any other content type: the raw data stream, with name and family as
//     query parameters (mgf excluded — it needs two parts).
//
// Either way the body is decoded streaming, record by record, under the
// per-family caps. Internally the request rides a transient upload session
// (the same machinery as /api/v2/uploads): each part is decoded *while*
// spooling, so decode errors surface mid-body exactly as they always did,
// and the commit is the identical atomic promotion the resumable API gets —
// including durable blob ingestion when the platform runs with a data
// directory. The tenant's count quota is checked when the session opens,
// before any data part decodes; the registry checks both quota bounds
// again in the commit that stores the dataset.
func (s *Server) handleV2DatasetUpload(w http.ResponseWriter, r *http.Request) {
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var (
		u   *registry.UploadSession
		err error
	)
	if mediaType == "multipart/form-data" {
		u, err = s.decodeMultipartUpload(r)
	} else {
		u, err = s.decodeRawUpload(r)
	}
	if err != nil {
		if u != nil {
			u.Abort()
		}
		s.writeUploadError(w, err)
		return
	}
	meta, err := u.Commit()
	if err != nil {
		// One-shot callers cannot resume; drop the session and its spools.
		u.Abort()
		s.writeUploadError(w, err)
		return
	}
	route.JSON(w, http.StatusCreated, datasetInfo(meta))
}

// decodeMultipartUpload streams a multipart/form-data body into a staged
// upload session: metadata fields first (name, family), then the data
// part(s), each decoded record by record as it arrives (ParseMultipartForm
// would buffer file parts to memory or disk; MultipartReader hands them
// over as streams). On error the partially-fed session (possibly nil) is
// returned for the caller to abort.
func (s *Server) decodeMultipartUpload(r *http.Request) (*registry.UploadSession, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, fmt.Errorf("bad multipart body: %v", err)
	}
	var (
		u      *registry.UploadSession
		name   string
		family registry.Family
		seen   = map[string]bool{}
	)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return u, fmt.Errorf("bad multipart body: %v", err)
		}
		field := part.FormName()
		switch field {
		case "name", "family":
			raw, err := io.ReadAll(io.LimitReader(part, maxUploadFieldSize+1))
			if err != nil {
				return u, fmt.Errorf("bad %s field: %v", field, err)
			}
			if len(raw) > maxUploadFieldSize {
				return u, fmt.Errorf("%s field longer than %d bytes", field, maxUploadFieldSize)
			}
			if field == "name" {
				name = string(raw)
			} else if family, err = registry.ParseFamily(string(raw)); err != nil {
				return u, err
			}
		default:
			// A data part: metadata must already be known, because the
			// decoder and its caps are family-specific and the body is
			// consumed in order.
			if name == "" || family == "" {
				return u, errors.New(`"name" and "family" fields must precede the data parts`)
			}
			if u == nil {
				// Stage, not Create: this path historically validated names
				// only at store time, so a malformed body fails before a
				// malformed name.
				if u, err = s.uploads.Stage(name, family, requestQuota(r)); err != nil {
					return nil, err
				}
			}
			if seen[field] {
				return u, fmt.Errorf("duplicate part %q", field)
			}
			seen[field] = true
			if _, err := u.AppendDecoded(field, part); err != nil {
				return u, fmt.Errorf("part %q: %v", field, err)
			}
		}
		part.Close()
	}
	if name == "" || family == "" {
		return u, errors.New(`upload needs "name" and "family" fields`)
	}
	if u == nil {
		// Metadata but no data parts: commit on the empty session reports
		// the family's missing-part error.
		if u, err = s.uploads.Stage(name, family, requestQuota(r)); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// decodeRawUpload streams a non-multipart body as the single data part,
// with name and family taken from the query string.
func (s *Server) decodeRawUpload(r *http.Request) (*registry.UploadSession, error) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		return nil, errors.New("upload needs a name (?name=... or a multipart name field)")
	}
	family, err := registry.ParseFamily(q.Get("family"))
	if err != nil {
		return nil, err
	}
	if family == registry.MGF {
		return nil, errors.New("mgf uploads need multipart/form-data with peptides and spectra parts")
	}
	u, err := s.uploads.Stage(name, family, requestQuota(r))
	if err != nil {
		return nil, err
	}
	if _, err := u.AppendDecoded("data", r.Body); err != nil {
		return u, err
	}
	return u, nil
}
