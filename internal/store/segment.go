package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// Segment framing. A segment file is a five-byte version header followed
// by a plain concatenation of records, each independently checksummed so
// a reader can detect exactly where a torn write begins:
//
//	offset  size  field
//	------  ----  -----------------------------------------------
//	0       4     magic   "RVLS" (rationality verdict-log segment)
//	4       1     version 4
//	then per record:
//	0       4     length  uint32 BE — byte length of the payload
//	4       4     crc     uint32 BE — CRC32C (Castagnoli) of payload
//	8       len   payload:
//	          32     key     identity.Hash (raw SHA-256 content address)
//	          8      stamp   uint64 BE (monotonic append sequence)
//	          2      olen    uint16 BE — byte length of origin
//	          4      qlen    uint32 BE — byte length of request
//	          4      clen    uint32 BE — byte length of cert
//	          olen   origin  identity.PartyID of the vouching authority
//	                         (hex Ed25519 public key; empty = unattributed)
//	          qlen   request (JSON-encoded core.VerifyRequest — the inputs
//	                         the verdict was computed from; empty = the
//	                         record predates v3 and cannot be re-audited)
//	          clen   cert    (JSON-encoded core.Certificate — the aggregate
//	                         quorum certificate vouching for the verdict;
//	                         empty = uncertified)
//	          rest   verdict (JSON-encoded core.Verdict)
//
// Version 1 segments — everything written before the federation change —
// have no header and no origin column: the payload is key, stamp, verdict.
// A reader distinguishes the formats by the magic: v1 could never start
// with "RVLS" because a record's first four bytes are a big-endian length
// far below 0x52564c53. Version 2 added the header and the origin column;
// version 3 added the request column (what lets any authority re-run the
// verification procedure for any record it holds — the audit loop's raw
// material); version 4 adds the certificate column, which makes aggregate
// quorum certificates first-class records that warm-start, compact and
// replicate exactly like the verdicts they certify. v1, v2 and v3
// segments are read transparently (missing columns come back empty) and
// upgraded to v4 the first time the store opens them; v4 is the only
// format ever written.
//
// The CRC covers the whole payload (key, stamp, origin, request, cert and
// verdict), so a flipped bit anywhere in a record is detected; the length
// prefix is implicitly protected because a corrupted length makes the CRC
// check of the mis-framed payload fail (except with probability 2^-32).

// crcTable is the Castagnoli polynomial table; CRC32C has hardware support
// on amd64/arm64, so framing costs no measurable CPU next to the syscall.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Segment format versions. segmentV1 is the legacy headerless layout (no
// origin column); segmentV2 added the header and origin; segmentV3 added
// the request column; segmentV4 — the current layout — adds the
// certificate column.
const (
	segmentV1 = 1
	segmentV2 = 2
	segmentV3 = 3
	segmentV4 = 4
)

// segmentHeader is the five-byte prefix of every written segment (and of
// every wire-framed delta): the magic plus the current version.
var segmentHeader = []byte{'R', 'V', 'L', 'S', segmentV4}

const (
	// segmentHeaderLen is the length of the per-file version header.
	segmentHeaderLen = 5
	// headerLen is the fixed per-record frame header: length + CRC.
	headerLen = 8
	// keyLen is the raw content-address length inside the payload.
	keyLen = len(identity.Hash{})
	// stampLen is the monotonic stamp length inside the payload.
	stampLen = 8
	// originLenLen is the origin length prefix inside a v2+ payload.
	originLenLen = 2
	// requestLenLen is the request length prefix inside a v3+ payload.
	requestLenLen = 4
	// certLenLen is the certificate length prefix inside a v4 payload.
	certLenLen = 4
	// minPayloadV1 / minPayloadV2 / minPayloadV3 / minPayloadV4 bound the
	// smallest well-formed payload per format version, so the frame reader
	// can reject a length field before allocating.
	minPayloadV1 = keyLen + stampLen
	minPayloadV2 = keyLen + stampLen + originLenLen
	minPayloadV3 = keyLen + stampLen + originLenLen + requestLenLen
	minPayloadV4 = keyLen + stampLen + originLenLen + requestLenLen + certLenLen
	// maxOrigin bounds the origin column. A party ID is 64 bytes of hex;
	// anything much longer is corruption, not an identity.
	maxOrigin = 256
	// maxPayload bounds a single record. Announcements are wire messages
	// (games, advice, proofs as JSON) and verdicts are small; a length
	// beyond this is corruption, not data, and the reader must not
	// allocate gigabytes on a torn length field's say-so.
	maxPayload = 16 << 20
)

// Record is one persisted verdict: the cache key, the monotonic append
// stamp (larger = written later; recovery keeps the largest per key), the
// identity of the authority that vouched for the record's entry into this
// log (the local authority for fresh verdicts, the signing peer for
// ingested ones; empty on unkeyed deployments and legacy v1 records), the
// request the verdict was computed from (JSON core.VerifyRequest; empty
// on records that predate the v3 format — those cannot be re-audited),
// the aggregate quorum certificate vouching for the verdict (JSON
// core.Certificate; empty on uncertified records and everything that
// predates the v4 format), and the verdict itself.
type Record struct {
	Key     identity.Hash
	Stamp   uint64
	Origin  identity.PartyID
	Request json.RawMessage
	Cert    []byte
	Verdict core.Verdict
}

// idxEntry is one on-disk index line: the newest stamp a key holds, the
// checksum of the verdict content at that stamp, the record's origin, and
// the verdict's polarity. The sum lets the anti-entropy manifest
// distinguish "peer has newer content" from "peer merely re-stamped
// identical content" (compaction's warmth re-ranking does the latter on
// every pass), so stamp churn never causes a re-transfer. The origin
// feeds the Provenance summary without a disk scan; the polarity lets
// Ingest refute an incoming record that contradicts a locally verified
// one without re-reading the log.
type idxEntry struct {
	stamp    uint64
	sum      uint32
	origin   identity.PartyID
	accepted bool
}

// recordSum is the content checksum the index and sync manifests carry:
// CRC32C over the canonical JSON encoding of the verdict extended with
// the certificate bytes — the exact bytes appendRecord frames, so every
// replica computes the same sum for the same content regardless of which
// one first persisted it or which authority's provenance it carries (the
// origin column is deliberately excluded: replicas converge on content,
// not on custody chains). Including the certificate means a record that
// gains a quorum certificate reads as new content to anti-entropy and
// gossip, so certificates propagate even where the bare verdict already
// converged.
func recordSum(r *Record) uint32 {
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		return 0 // unencodable: writeStamped will refuse it anyway
	}
	sum := crc32.Checksum(body, crcTable)
	if len(r.Cert) > 0 {
		sum = crc32.Update(sum, crcTable, r.Cert)
	}
	return sum
}

// appendRecord encodes a record onto buf in the v4 layout and returns the
// extended slice plus the record's content checksum (computed here, where
// the verdict bytes already exist, so the index never pays a second
// marshal). The frame is assembled in memory first so the file write is a
// single contiguous append — the closest a userspace writer gets to
// atomicity.
func appendRecord(buf []byte, r *Record) ([]byte, uint32, error) {
	body, err := json.Marshal(&r.Verdict)
	if err != nil {
		return buf, 0, fmt.Errorf("store: encoding verdict: %w", err)
	}
	if len(r.Origin) > maxOrigin {
		return buf, 0, fmt.Errorf("store: origin of %d bytes exceeds the %d-byte bound", len(r.Origin), maxOrigin)
	}
	payloadLen := minPayloadV4 + len(r.Origin) + len(r.Request) + len(r.Cert) + len(body)
	if payloadLen > maxPayload {
		return buf, 0, fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", payloadLen, maxPayload)
	}
	start := len(buf)
	buf = append(buf, make([]byte, headerLen)...)
	buf = append(buf, r.Key[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Stamp)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Origin)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Request)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Cert)))
	buf = append(buf, r.Origin...)
	buf = append(buf, r.Request...)
	buf = append(buf, r.Cert...)
	buf = append(buf, body...)
	payload := buf[start+headerLen:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	sum := crc32.Checksum(body, crcTable)
	if len(r.Cert) > 0 {
		sum = crc32.Update(sum, crcTable, r.Cert)
	}
	return buf, sum, nil
}

// errTorn reports a frame that cannot be trusted: a short read, a length
// field out of bounds, or a CRC mismatch. It marks the end of a segment's
// valid prefix rather than a fatal store error.
var errTorn = errors.New("store: torn or corrupt record")

// errVersion reports a segment or wire blob whose header names a format
// version this code does not speak — refusing it outright beats guessing
// at an unknown layout's record boundaries.
var errVersion = errors.New("store: unsupported segment version")

// sniffVersion peeks at the reader's first bytes and consumes the segment
// header when one is present, returning the format version to read
// records with. A stream that does not start with the magic is a legacy
// v1 segment and is left unconsumed; a stream with the magic but an
// unknown version is refused.
func sniffVersion(br *bufio.Reader) (int, error) {
	head, err := br.Peek(segmentHeaderLen)
	if err != nil {
		// Shorter than a header: whatever it is (empty file, torn v1
		// record), the v1 record reader gives the right answer.
		return segmentV1, nil
	}
	if string(head[:4]) != string(segmentHeader[:4]) {
		return segmentV1, nil
	}
	if head[4] != segmentV2 && head[4] != segmentV3 && head[4] != segmentV4 {
		return 0, fmt.Errorf("%w: %d", errVersion, head[4])
	}
	br.Discard(segmentHeaderLen)
	return int(head[4]), nil
}

// frame is one checked record as it sits in a segment: the raw bytes —
// length + CRC header, then the payload — with the key and stamp parsed
// and the remaining columns sliced out of the payload, but nothing
// decoded. Readers that only route records (compaction, the live-record
// reader behind Delta and Records) never pay for the verdict JSON; a
// frame is materialized as a Record only by decode.
type frame struct {
	raw     []byte
	key     identity.Hash
	stamp   uint64
	origin  []byte
	request []byte
	cert    []byte
	verdict []byte // JSON core.Verdict
}

// readFrame reads the next frame of a segment in the given format version
// into f, reusing f.raw's capacity, and checks it: the length field
// against the version's bounds, the CRC32C over the payload, and every
// column length against the payload. It returns io.EOF at a clean segment
// end, errTorn when the next frame is short, over-long, fails its
// checksum or has a column overrunning its payload, and any other error
// verbatim (a real I/O failure). f's slices alias f.raw and stay valid
// until the next readFrame into the same f.
func readFrame(r io.Reader, version int, f *frame) error {
	buf := f.raw[:0]
	if cap(buf) < headerLen {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:headerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return io.EOF // clean end: no partial header
		}
		if err == io.ErrUnexpectedEOF {
			return errTorn // header itself is torn
		}
		return err
	}
	minPayload := minPayloadV1
	switch {
	case version >= segmentV4:
		minPayload = minPayloadV4
	case version >= segmentV3:
		minPayload = minPayloadV3
	case version >= segmentV2:
		minPayload = minPayloadV2
	}
	length := int(binary.BigEndian.Uint32(buf[:4]))
	if length < minPayload || length > maxPayload {
		return errTorn
	}
	if cap(buf) < headerLen+length {
		buf = append(make([]byte, 0, headerLen+length), buf...)
	}
	buf = buf[:headerLen+length]
	f.raw = buf
	payload := buf[headerLen:]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return errTorn // payload shorter than its header promised
		}
		return err
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(buf[4:headerLen]) {
		return errTorn
	}
	copy(f.key[:], payload[:keyLen])
	f.stamp = binary.BigEndian.Uint64(payload[keyLen:minPayloadV1])
	// Column lengths follow the stamp, one per column the version has.
	var olen, qlen, clen int
	if version >= segmentV2 {
		olen = int(binary.BigEndian.Uint16(payload[minPayloadV1:minPayloadV2]))
	}
	if version >= segmentV3 {
		qlen = int(binary.BigEndian.Uint32(payload[minPayloadV2:minPayloadV3]))
	}
	if version >= segmentV4 {
		clen = int(binary.BigEndian.Uint32(payload[minPayloadV3:minPayloadV4]))
	}
	if olen > maxOrigin || qlen > maxPayload || clen > maxPayload ||
		minPayload+olen+qlen+clen > length {
		return errTorn
	}
	cols := payload[minPayload:]
	f.origin, cols = cols[:olen], cols[olen:]
	f.request, cols = cols[:qlen], cols[qlen:]
	f.cert, f.verdict = cols[:clen], cols[clen:]
	return nil
}

// decode materializes the frame as a Record. Every column is copied, so
// the record outlives the frame's buffer. A verdict that does not decode
// passed its CRC, so these bytes are what the writer wrote — a writer
// bug, not a torn write — but it is reported as errTorn anyway: a replay
// stops there rather than guessing at the next frame.
func (f *frame) decode(rec *Record) error {
	rec.Key = f.key
	rec.Stamp = f.stamp
	rec.Origin = identity.PartyID(f.origin)
	rec.Request = nil
	if len(f.request) > 0 {
		rec.Request = append(json.RawMessage(nil), f.request...)
	}
	rec.Cert = nil
	if len(f.cert) > 0 {
		rec.Cert = append([]byte(nil), f.cert...)
	}
	rec.Verdict = core.Verdict{}
	if err := json.Unmarshal(f.verdict, &rec.Verdict); err != nil {
		return errTorn
	}
	return nil
}

// restamp rewrites a v4 frame's stamp in place and re-seals its CRC: the
// one edit compaction makes to a record it carries into the snapshot.
func (f *frame) restamp(stamp uint64) {
	f.stamp = stamp
	binary.BigEndian.PutUint64(f.raw[headerLen+keyLen:], stamp)
	binary.BigEndian.PutUint32(f.raw[4:headerLen], crc32.Checksum(f.raw[headerLen:], crcTable))
}
