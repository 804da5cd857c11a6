package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"facc/internal/faultinject"
)

// The log is one file: an 8-byte header naming the format, then frames,
// each one record (entry.go, or a tombstone) behind a 12-byte header:
//
//	[0:4)   record length n (u32, little endian)
//	[4:8)   CRC32C of the record
//	[8:12)  CRC32C of bytes [0:8), the header's own check
//	[12:12+n) the record
//
// A header that fails its check, or a frame that runs past the end of
// the file, ends the valid prefix: everything from there on is the torn
// tail of an append that never reached its fsync. A record that fails
// its CRC behind a good header is damage confined to that record; the
// scan skips it and goes on.
const (
	logHeader   = "FACCLOG1"
	frameHeader = 12
	// maxRecord bounds a frame's length field, so a damaged header
	// cannot ask the scan for an absurd buffer.
	maxRecord = 64 << 20
	// tombstoneFormat is the first byte of a tombstone record, which
	// carries only its key. Entry records start with entryFormat.
	tombstoneFormat = 0
	// appendBufSize is the committer's write buffer: frames are packed
	// into it and it is written out whenever it fills.
	appendBufSize = 64 << 10
	// scanBufSize is the read buffer of Open's scan and the write
	// buffer of compaction.
	scanBufSize = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func tombstone(key string) []byte {
	return append([]byte{tombstoneFormat}, key...)
}

func putFrameHeader(h, rec []byte) {
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(rec, castagnoli))
	binary.LittleEndian.PutUint32(h[8:12], crc32.Checksum(h[0:8], castagnoli))
}

// frameLen checks a frame header and returns its record length; false
// means the header fails its check and the valid prefix ends here.
func frameLen(h []byte) (int, bool) {
	if crc32.Checksum(h[0:8], castagnoli) != binary.LittleEndian.Uint32(h[8:12]) {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(h[0:4])
	if n == 0 || n > maxRecord {
		return 0, false
	}
	return int(n), true
}

var errFrame = errors.New("store: frame fails its check")

// checkFrame verifies a whole frame read at a known location.
func checkFrame(fr []byte) bool {
	n, ok := frameLen(fr)
	return ok && n == len(fr)-frameHeader &&
		crc32.Checksum(fr[frameHeader:], castagnoli) == binary.LittleEndian.Uint32(fr[4:8])
}

// verifyFrame checks a frame read at key's location and opens its entry.
func verifyFrame(key string, fr []byte) (Entry, error) {
	if !checkFrame(fr) {
		return Entry{}, errFrame
	}
	return openEntry(key, fr[frameHeader:])
}

// scanFrames walks the frames of f in [off, size) through a bounded
// buffer, calling visit with each frame whose header checks out; ok
// reports whether its record matches its CRC, and rec is valid only
// during the call. It returns where the valid prefix ends: size for a
// clean log, else the start of the torn tail. The buffer grows past
// scanBufSize only to hold a frame larger than it.
func scanFrames(f io.ReaderAt, off, size int64, visit func(off int64, rec []byte, ok bool)) (int64, error) {
	var buf []byte
	var bufOff int64
	fill := func(at int64, n int) ([]byte, error) {
		if at >= bufOff && at+int64(n) <= bufOff+int64(len(buf)) {
			return buf[at-bufOff : at-bufOff+int64(n)], nil
		}
		want := int64(max(n, scanBufSize))
		want = min(want, size-at)
		if int64(cap(buf)) < want {
			buf = make([]byte, want)
		}
		buf, bufOff = buf[:want], at
		if _, err := readFull(f, buf, at); err != nil {
			buf = buf[:0]
			return nil, err
		}
		return buf[:n], nil
	}
	for size-off >= frameHeader {
		h, err := fill(off, frameHeader)
		if err != nil {
			return off, err
		}
		n, ok := frameLen(h)
		if !ok || int64(n) > size-off-frameHeader {
			return off, nil
		}
		fr, err := fill(off, frameHeader+n)
		if err != nil {
			return off, err
		}
		rec := fr[frameHeader:]
		visit(off, rec, crc32.Checksum(rec, castagnoli) == binary.LittleEndian.Uint32(fr[4:8]))
		off += frameHeader + int64(n)
	}
	return off, nil
}

func readFull(f io.ReaderAt, buf []byte, off int64) (int, error) {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return n, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// appender writes to f from off through a fixed buffer, which is
// written out whenever it fills: a batch of typical adapters is one
// write, and neither a large batch nor a large adapter grows it.
type appender struct {
	f   faultinject.File
	off int64 // file offset of buf[0]
	buf []byte
}

func (w *appender) pos() int64 { return w.off + int64(len(w.buf)) }

func (w *appender) write(p []byte) error {
	for len(p) > 0 {
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+n], p[n:]
		if len(w.buf) == cap(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *appender) frame(rec []byte) error {
	var h [frameHeader]byte
	putFrameHeader(h[:], rec)
	if err := w.write(h[:]); err != nil {
		return err
	}
	return w.write(rec)
}

func (w *appender) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.WriteAt(w.buf, w.off)
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return err
}
