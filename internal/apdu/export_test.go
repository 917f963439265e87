package apdu

// Accessors only this package's tests use.

import "errors"

// ParseResponse decodes a response APDU.
func ParseResponse(b []byte) (Response, error) {
	if len(b) < 2 {
		return Response{}, errors.New("apdu: truncated response")
	}
	return Response{
		Data: append([]byte(nil), b[:len(b)-2]...),
		SW:   uint16(b[len(b)-2])<<8 | uint16(b[len(b)-1]),
	}, nil
}

// OK reports whether the status word is SWSuccess.
func (r Response) OK() bool { return r.SW == SWSuccess }
