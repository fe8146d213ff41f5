package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// maxChunkLine bounds the "ffff;ext" chunk-size line.
const maxChunkLine = 256

// ChunkedWriter frames writes as HTTP/1.1 chunks on bw. Each Write emits
// one chunk; Close emits the zero-length terminator. The caller owns
// flushing bw.
type ChunkedWriter struct {
	bw *bufio.Writer
}

// NewChunkedWriter wraps bw in chunked transfer coding.
func NewChunkedWriter(bw *bufio.Writer) *ChunkedWriter { return &ChunkedWriter{bw: bw} }

// Write emits p as a single chunk. Zero-length writes are suppressed — a
// zero chunk would terminate the body early.
func (cw *ChunkedWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if _, err := fmt.Fprintf(cw.bw, "%x\r\n", len(p)); err != nil {
		return 0, err
	}
	if _, err := cw.bw.Write(p); err != nil {
		return 0, err
	}
	if _, err := cw.bw.WriteString("\r\n"); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close writes the last-chunk marker (no trailers). It does not flush.
func (cw *ChunkedWriter) Close() error {
	_, err := cw.bw.WriteString("0\r\n\r\n")
	return err
}

// chunkedReader decodes chunked transfer coding off br, consuming the
// terminating zero chunk (and any trailer lines) so the connection is left
// positioned at the next message.
type chunkedReader struct {
	br     *bufio.Reader
	remain int64 // unread bytes in the current chunk
	done   bool
	err    error
}

// NewChunkedReader returns a reader yielding the dechunked body. It
// reports io.EOF only after the zero-length terminator; a connection that
// dies mid-body surfaces as an error, never as a clean EOF.
func NewChunkedReader(br *bufio.Reader) io.Reader { return &chunkedReader{br: br} }

func (cr *chunkedReader) Read(p []byte) (int, error) {
	if cr.err != nil {
		return 0, cr.err
	}
	if cr.remain == 0 && !cr.done {
		if err := cr.nextChunk(); err != nil {
			cr.err = err
			return 0, err
		}
	}
	if cr.done {
		return 0, io.EOF
	}
	if int64(len(p)) > cr.remain {
		p = p[:cr.remain]
	}
	n, err := cr.br.Read(p)
	cr.remain -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err == nil && cr.remain == 0 {
		err = cr.readCRLF()
	}
	if err != nil {
		cr.err = err
	}
	return n, err
}

// nextChunk parses the next chunk-size line; a zero size consumes the
// trailer section and marks the stream done.
func (cr *chunkedReader) nextChunk() error {
	line, err := readLine(cr.br, maxChunkLine)
	if err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i] // chunk extensions are ignored
	}
	size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
	if err != nil || size < 0 {
		return parseErrf("bad chunk size %q", line)
	}
	if size == 0 {
		for {
			l, err := readLine(cr.br, MaxRequestLine)
			if err != nil {
				if err == io.EOF {
					return io.ErrUnexpectedEOF
				}
				return err
			}
			if len(l) == 0 {
				break
			}
		}
		cr.done = true
		return nil
	}
	cr.remain = size
	return nil
}

// readCRLF consumes the CRLF that closes a chunk's data.
func (cr *chunkedReader) readCRLF() error {
	line, err := readLine(cr.br, 4)
	if err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if len(line) != 0 {
		return parseErrf("chunk data not followed by CRLF")
	}
	return nil
}
