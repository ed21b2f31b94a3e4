package obs

import (
	"log"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// reqPrefix is a per-process random prefix so request ids from different
// server instances don't collide in aggregated logs; reqSeq is the
// monotonically increasing suffix.
var (
	reqPrefix = uint32(rand.Int63())
	reqSeq    atomic.Uint64
)

// AccessLog wraps next with structured access logging: it assigns each
// request an id (also set as the X-Request-Id response header), and logs
// one line per request with the id, method, path, status, response bytes,
// duration and remote address. A nil logger uses the stdlib default.
func AccessLog(logger *log.Logger, next http.Handler) http.Handler {
	if logger == nil {
		logger = log.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := nextRequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req)
		logger.Printf("access id=%s method=%s path=%q status=%d bytes=%d dur=%s remote=%s",
			id, req.Method, req.URL.RequestURI(), sw.status, sw.bytes,
			time.Since(start).Round(time.Microsecond), req.RemoteAddr)
	})
}

func nextRequestID() string {
	seq := reqSeq.Add(1)
	const hexdig = "0123456789abcdef"
	var b [16]byte
	i := len(b)
	for v := seq; ; v >>= 4 {
		i--
		b[i] = hexdig[v&0xf]
		if v>>4 == 0 {
			break
		}
	}
	i--
	b[i] = '-'
	for v, k := reqPrefix, 0; k < 8; k++ {
		i--
		b[i] = hexdig[v&0xf]
		v >>= 4
	}
	return string(b[i:])
}

// LimitInFlight bounds the number of concurrently executing requests to
// limit; excess requests are shed immediately through reject rather than
// queued, so a traffic spike degrades to fast rejections instead of piling
// up goroutines. reject writes the server's own 503 in its wire format.
// limit <= 0 disables the limiter. Rejections are counted in the registry's
// <ns>_rejected_total.
func (r *Registry) LimitInFlight(limit int, next, reject http.Handler) http.Handler {
	if limit <= 0 {
		return next
	}
	sem := make(chan struct{}, limit)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, req)
		default:
			r.rejected.Add(1)
			reject.ServeHTTP(w, req)
		}
	})
}
