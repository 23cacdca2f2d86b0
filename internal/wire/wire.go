// Package wire implements the low-level binary encoding used by every
// protocol message: unsigned varints, length-prefixed byte strings, and a
// cursor-based reader with sticky error handling. The repository uses a
// hand-rolled codec instead of encoding/gob so that signed digests are
// byte-for-byte deterministic across processes and Go versions.
//
// Buffer ownership: a Reader made by NewReader copies every byte string it
// returns, so a decoded value never aliases the input and the caller may
// reuse or overwrite the buffer. A Reader made by NewOwnedReader returns
// sub-slices of the input instead, for a caller that owns the buffer and
// never writes to it again (a frame the transport allocated for this one
// delivery): decoding then allocates nothing per byte string, and the
// decoded values keep the whole buffer alive for as long as any of them is
// held. Each sub-slice's capacity ends where its field does, so appending
// to a decoded field reallocates instead of writing over the next field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding limits. Messages larger than MaxBytes are rejected both by the
// decoder and by the TCP framing layer; this bounds the memory an adversary
// can force a correct process to allocate.
const (
	// MaxBytes is the maximum size of one encoded message.
	MaxBytes = 8 << 20
	// MaxSlice is the maximum element count of one encoded slice.
	MaxSlice = 1 << 16
)

// Decoding errors.
var (
	// ErrTruncated indicates the buffer ended before the value did.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrOverflow indicates a length or count exceeding the codec limits.
	ErrOverflow = errors.New("wire: length exceeds limit")
	// ErrTrailing indicates unread bytes after a complete message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Writer appends encoded values to a byte buffer. The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The buffer is owned by the writer until
// the writer is discarded.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends v in unsigned varint encoding.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) {
	w.buf = append(w.buf, v)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Int32 appends v as a zig-zag varint, so that small negative identifiers
// (e.g. NoProcess) stay short.
func (w *Writer) Int32(v int32) {
	w.buf = binary.AppendVarint(w.buf, int64(v))
}

// BytesField appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes values from a byte buffer. After the first failure every
// subsequent read returns the zero value and the reader's Err method reports
// the failure; this keeps decode methods linear instead of nested.
type Reader struct {
	buf   []byte
	off   int
	err   error
	owned bool // BytesField returns sub-slices of buf (see NewOwnedReader)
}

// NewReader returns a reader over buf. The reader does not copy buf; callers
// that retain decoded byte fields receive copies.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// NewOwnedReader returns a reader over buf whose BytesField returns
// sub-slices of buf rather than copies. The caller must own buf and never
// write to it again while any decoded field is in use (see the package
// doc); a reader for any other buffer is NewReader's.
func NewOwnedReader(buf []byte) *Reader {
	return &Reader{buf: buf, owned: true}
}

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns the sticky error, or ErrTrailing if unread bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail records err as the reader's sticky error (first failure wins), for
// decoders that enforce constraints beyond what the primitive readers check
// (e.g. domain-specific length limits).
func (r *Reader) Fail(err error) { r.fail(err) }

// ErrNonCanonical indicates an input that decodes to a value whose canonical
// encoding differs (e.g. a padded varint). Such inputs are rejected so that
// no two byte strings decode to the same message — signed digests must be
// unique.
var ErrNonCanonical = errors.New("wire: non-canonical encoding")

// Uvarint reads an unsigned varint. Non-minimal (padded) encodings are
// rejected: a minimal varint never ends in a zero byte unless it is the
// single byte 0x00.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	return v
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a boolean encoded as one byte (values other than 0 and 1 are
// rejected, keeping encodings canonical for signing).
func (r *Reader) Bool() bool {
	v := r.Uint8()
	switch v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: non-canonical bool byte %d", v))
		return false
	}
}

// Int32 reads a zig-zag varint and checks the int32 range. As with Uvarint,
// padded encodings are rejected.
func (r *Reader) Int32() int32 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	if v < -(1<<31) || v >= 1<<31 {
		r.fail(ErrOverflow)
		return 0
	}
	return int32(v)
}

// BytesField reads a length-prefixed byte string. The returned slice is a
// copy and safe to retain, unless the reader is an owned one
// (NewOwnedReader): then it is the field's bytes in the input buffer, with
// its capacity capped at its length.
func (r *Reader) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytes || n > uint64(r.Remaining()) {
		r.fail(ErrOverflow)
		return nil
	}
	end := r.off + int(n)
	field := r.buf[r.off:end:end]
	r.off = end
	if r.owned {
		return field
	}
	return append(make([]byte, 0, n), field...)
}

// SliceLen reads a slice length prefix, enforcing MaxSlice. A count above
// the unread byte count is refused too: every element encodes to at least
// one byte, so such a count can only be a lie, and refusing it stops a
// short frame from making the caller preallocate for MaxSlice elements.
func (r *Reader) SliceLen() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > MaxSlice || n > uint64(r.Remaining()) {
		r.fail(ErrOverflow)
		return 0
	}
	return int(n)
}
