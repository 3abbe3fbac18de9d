// Package jsonw holds the two value appenders the hand-written JSON
// writers of this module share: a float64 and a string, each emitting
// exactly the bytes encoding/json's Marshal emits for the same value (HTML
// escaping on, as Marshal has it). Objects, arrays and field order are the
// callers' business; this package has no types and imports only the
// standard library.
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-tripping digits, in 'e' notation below 1e-6 and from 1e21 on (with
// a one-digit negative exponent unpadded: 1e-7, not 1e-07), 'f' notation
// otherwise. NaN and ±Inf, which JSON cannot carry, return dst unchanged
// and an error worded as encoding/json's Marshal words it.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string the way encoding/json's
// Marshal does: `"` and `\` backslash-escaped; \b, \f, \n, \r and \t by
// name; other control bytes and the HTML-sensitive <, > and & as \u00XX;
// each invalid UTF-8 byte as the escaped replacement character (U+FFFD);
// U+2028 and U+2029 escaped too.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
