package s4rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"s4/internal/types"
	"s4/internal/xdr"
)

const (
	// readBufSize sizes each connection's bufio.Reader: a frame carrying
	// one block of payload arrives with a single read.
	readBufSize = types.BlockSize + 512
	// maxPooledFrame is the largest buffer the pool keeps, so a burst of
	// MaxFrame-sized writes does not stay resident.
	maxPooledFrame = 64 << 10
)

// framePool recycles frame buffers. A buffer is an xdr.Encoder — a byte
// slice with append methods — so one pool serves outbound frames
// (encoded into it) and inbound ones (read into its capacity). Only
// bytes are pooled: a decoded value that outlives its frame (everything
// except a server-side Request.Data) has been copied out of it.
var framePool = sync.Pool{New: func() any { return new(xdr.Encoder) }}

func getFrame() *xdr.Encoder { return framePool.Get().(*xdr.Encoder) }

func putFrame(f *xdr.Encoder) {
	if cap(f.Bytes()) <= maxPooledFrame {
		framePool.Put(f)
	}
}

// errUnsendable marks a message that cannot be put on the wire. Nothing
// was sent, so the connection stays in step, and retrying cannot help.
var errUnsendable = errors.New("s4rpc: message cannot be sent")

// writeFrame encodes one frame into a pooled buffer, sized up front by
// hint, and sends header and body with a single Write: the wrappers a
// connection may be dressed in (fault injection, byte counters) turn a
// vectored write into several, and one copy is cheaper than a second
// system call.
func writeFrame(w io.Writer, hint int, encode func(*xdr.Encoder) error) error {
	f := getFrame()
	defer putFrame(f)
	buf := f.Bytes()
	if need := frameHdrLen + hint; cap(buf) < need {
		buf = make([]byte, 0, max(need, readBufSize))
	}
	f.Reset(buf[:frameHdrLen])
	if err := encode(f); err != nil {
		return fmt.Errorf("%w: %w", errUnsendable, err)
	}
	n := len(f.Bytes()) - frameHdrLen
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes: %w", errUnsendable, n, types.ErrTooLarge)
	}
	binary.BigEndian.PutUint32(f.Bytes(), uint32(n))
	_, err := w.Write(f.Bytes())
	return err
}

// readFrame reads one frame of at most limit bytes into f, growing it
// when needed, and returns the body. The limit is checked before any
// byte of the body is awaited or any buffer sized.
func readFrame(br *bufio.Reader, f *xdr.Encoder, limit int) ([]byte, error) {
	hdr, err := br.Peek(frameHdrLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > uint32(limit) {
		return nil, fmt.Errorf("s4rpc: frame of %d bytes: %w", n, types.ErrTooLarge)
	}
	_, _ = br.Discard(frameHdrLen) // cannot fail: Peek buffered them
	body := f.Bytes()
	if cap(body) < int(n) {
		body = make([]byte, n)
	}
	body = body[:n]
	f.Reset(body)
	_, err = io.ReadFull(br, body)
	return body, err
}
