package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// isCorrupt reports whether err is (or wraps) a *CorruptError.
func isCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 10_000),
	}
	var stream []byte
	for _, b := range bodies {
		stream = AppendFrame(stream, b)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range bodies {
		got, err := ReadFrame(r, 1<<20, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: body mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		buf = got
	}
	if _, err := ReadFrame(r, 1<<20, buf); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameTornHeaderAndBody(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	for _, cut := range []int{1, FrameHeaderLen - 1, FrameHeaderLen + 2, len(frame) - 1} {
		if _, err := ReadFrame(bytes.NewReader(frame[:cut]), 1<<20, nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameCorruptCRC(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	frame[len(frame)-1] ^= 0x01
	_, err := ReadFrame(bytes.NewReader(frame), 1<<20, nil)
	if !isCorrupt(err) {
		t.Fatalf("corrupt body: got %v, want *CorruptError", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	// A hostile declared length must be refused before any body read or
	// allocation: hand the reader a header claiming 1 GiB with no body
	// behind it — ReadFrame must fail with the typed error, not hang on
	// ReadFull or allocate a giant buffer.
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20, nil)
	var tooBig *FrameTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("oversized frame: got %v, want *FrameTooLargeError", err)
	}
	if tooBig.Declared != 1<<30 || tooBig.Limit != 1<<20 {
		t.Fatalf("error fields: %+v", tooBig)
	}
}

func TestAppendFrameMatchesWALReader(t *testing.T) {
	// The exported helper must emit the exact frame layout the package's
	// own record reader accepts — they are one framing.
	body := beginBody(nil, 7, RecDelete)
	body = AppendInt64s(body, []int64{1, 2, 3})
	stream := AppendFrame(nil, body)
	r := reader{data: stream}
	got, ok := r.next()
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("internal reader rejected AppendFrame output (ok=%v)", ok)
	}
}
