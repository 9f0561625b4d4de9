package server

import "net/http"

// HTTPServer exposes the serve loop's net/http server to the external test
// package, which also builds cluster coordinators.
func HTTPServer(f *Frontend, addr string) *http.Server { return f.httpServer(addr) }
