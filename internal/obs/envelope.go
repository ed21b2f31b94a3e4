package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ErrorBody is the machine-readable payload of one API error: a stable,
// grep-able code plus a human-oriented message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the error envelope every non-2xx response of the serving
// tier carries: {"error":{"code":…,"message":…}}. Handlers that build error
// responses by hand (rather than through WriteError) embed this shape.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// WriteError emits status with the canonical error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	// The envelope is two flat strings; an encode failure here means the
	// connection is gone, which the caller cannot act on.
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}
