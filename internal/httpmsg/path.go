package httpmsg

import (
	"bytes"
	"strings"
	"unsafe"
)

// knownPath asks known for a request target that decodePath would return
// unchanged — no escapes, already normal — and reports the string known
// gave for it. The view known and isNormal see aliases target and lives
// only for this call.
func knownPath(target []byte, known func([]byte) (string, bool)) (string, bool) {
	if known == nil || len(target) == 0 || bytes.IndexByte(target, '%') >= 0 ||
		!isNormal(unsafe.String(&target[0], len(target))) {
		return "", false
	}
	return known(target)
}

// DecodePath percent-decodes a wire-form path (e.g. one lifted from a 302
// Location) and normalizes it, exactly as the server-side parser would.
func DecodePath(p string) (string, error) { return decodePath(p) }

// decodePath percent-decodes a request path and normalizes it, rejecting
// traversal outside the document root ("completes the pathname given,
// determining appropriate permissions along the way").
func decodePath(p string) (string, error) {
	decoded, err := unescape(p)
	if err != nil {
		return "", err
	}
	clean, ok := normalize(decoded)
	if !ok {
		return "", parseErrf("path %q escapes the document root", p)
	}
	return clean, nil
}

// unescape performs percent-decoding.
func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '%') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", parseErrf("truncated percent escape in %q", s)
		}
		hi, ok1 := unhex(s[i+1])
		lo, ok2 := unhex(s[i+2])
		if !ok1 || !ok2 {
			return "", parseErrf("bad percent escape in %q", s)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// normalize resolves "." and ".." segments. It returns ok=false if the path
// would climb above the root, and always yields a path starting with "/".
func normalize(p string) (string, bool) {
	if isNormal(p) {
		return p, true
	}
	return resolveSegments(p)
}

func resolveSegments(p string) (string, bool) {
	segs := strings.Split(p, "/")
	out := make([]string, 0, len(segs))
	for _, seg := range segs {
		switch seg {
		case "", ".":
			// Collapse duplicate slashes and self references.
		case "..":
			if len(out) == 0 {
				return "", false
			}
			out = out[:len(out)-1]
		default:
			if strings.ContainsRune(seg, '\x00') {
				return "", false
			}
			out = append(out, seg)
		}
	}
	clean := "/" + strings.Join(out, "/")
	if strings.HasSuffix(p, "/") && clean != "/" {
		clean += "/"
	}
	return clean, true
}

// isNormal reports whether resolveSegments would hand p back unchanged —
// the case for nearly every request, which then costs no allocation: p is
// rooted, and no segment is empty, ".", "..", or carries a NUL.
func isNormal(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	for rest := p[1:]; rest != ""; {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." || strings.IndexByte(seg, 0) >= 0 {
			return false
		}
		if more && tail == "" {
			return true // a single trailing slash is kept
		}
		rest = tail
	}
	return true
}

// EscapePath percent-encodes the bytes that cannot appear raw in a request
// target or Location header. Slashes are kept as separators. A path with
// nothing to encode comes back as is, without a copy.
func EscapePath(p string) string {
	for i := 0; i < len(p); i++ {
		if shouldEscape(p[i]) {
			return string(appendEscapedPath(make([]byte, 0, len(p)+8), p))
		}
	}
	return p
}

// appendEscapedPath appends p to dst with the bytes that cannot appear raw
// in a request target percent-encoded. Slashes are kept as separators.
func appendEscapedPath(dst []byte, p string) []byte {
	const hexDigits = "0123456789ABCDEF"
	for i := 0; i < len(p); i++ {
		c := p[i]
		if shouldEscape(c) {
			dst = append(dst, '%', hexDigits[c>>4], hexDigits[c&0xf])
		} else {
			dst = append(dst, c)
		}
	}
	return dst
}

func shouldEscape(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return false
	}
	switch c {
	case '/', '-', '_', '.', '~', '+', '&', '=', ':', '@', ',', ';', '$', '!', '*', '\'', '(', ')':
		return false
	}
	return true
}

// ContentTypeFor guesses a Content-Type from the path extension, covering
// the document types a 1996 digital library serves.
func ContentTypeFor(path string) string {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return "application/octet-stream"
	}
	switch strings.ToLower(path[dot+1:]) {
	case "html", "htm":
		return "text/html"
	case "txt":
		return "text/plain"
	case "gif":
		return "image/gif"
	case "jpg", "jpeg":
		return "image/jpeg"
	case "ps":
		return "application/postscript"
	case "pdf":
		return "application/pdf"
	case "img", "dat", "bin":
		return "application/octet-stream"
	default:
		return "application/octet-stream"
	}
}
