package workflow

// The fleet wire codec: gob encodings for the two payload kinds that cross
// the coordinator/worker boundary (internal/fleet). Context datasets ship
// whole — content-addressed by SHA-256 of these bytes, so workers cache
// them — and shard outputs ship per task, raw behind a JSON result
// envelope. gob is deterministic for the platform's payload types
// (exported fields, no maps), which is what makes "equal datasets encode
// to equal bytes" hold for the content-hash data plane, and what the
// distributed-vs-local equivalence tests compare.
//
// Every stage payload that can appear in a StreamShard's Data must be
// registered here; forgetting one fails the first remote dispatch loudly
// with a gob "type not registered" error, never silently.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
)

func init() {
	// Shard inputs: record chunks and re-scatter descriptors.
	gob.Register([]genomics.Read(nil))
	gob.Register([]genomics.Alignment(nil))
	gob.Register([]proteome.Spectrum(nil))
	gob.Register(TileShard{})
	gob.Register(NodeRange{})
	// Shard outputs, one per streaming family.
	gob.Register(AlignedShard{})
	gob.Register([]genomics.Variant(nil))
	gob.Register(Feature{})
	gob.Register([]proteome.Match(nil))
	gob.Register([]imaging.Region(nil))
	gob.Register([]network.Edge(nil))
}

// EncodeDataset serializes a dataset for the fleet data plane. Equal
// datasets produce equal bytes, so SHA-256 of the encoding is a stable
// content address.
func EncodeDataset(d *Dataset) ([]byte, error) {
	if d == nil {
		return nil, ErrNilDataset
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("workflow: encode dataset: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeDataset reverses EncodeDataset.
func DecodeDataset(b []byte) (*Dataset, error) {
	d := new(Dataset)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(d); err != nil {
		return nil, fmt.Errorf("workflow: decode dataset: %w", err)
	}
	return d, nil
}

// EncodeShard serializes one stream shard (a worker's task output, or an
// inline task input).
func EncodeShard(s StreamShard) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return nil, fmt.Errorf("workflow: encode shard: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeShard reads one EncodeShard encoding from r, which must end with
// it: bytes after the shard are an error.
func DecodeShard(r io.Reader) (StreamShard, error) {
	br := bufio.NewReader(r)
	var s StreamShard
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return StreamShard{}, fmt.Errorf("workflow: decode shard: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return StreamShard{}, fmt.Errorf("workflow: decode shard: %w", cmp.Or(err, errors.New("bytes after the shard")))
	}
	return s, nil
}
