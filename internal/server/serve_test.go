package server_test

import (
	"testing"
	"time"

	"imdist/internal/cluster"
	"imdist/internal/server"
)

// TestTimeoutConfig checks that the configured timeouts reach the one serve
// loop in both serving modes: a single process and a cluster coordinator.
func TestTimeoutConfig(t *testing.T) {
	cases := []struct {
		name         string
		read, write  time.Duration
		wantR, wantW time.Duration
	}{
		{"defaults", 0, 0, server.DefaultReadTimeout, server.DefaultWriteTimeout},
		{"explicit", 10 * time.Second, 3 * time.Minute, 10 * time.Second, 3 * time.Minute},
		{"disabled", -1, -1, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			limits := server.Limits{ReadTimeout: c.read, WriteTimeout: c.write}
			s, err := server.New(server.Config{AllowEmpty: true, Limits: limits})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			coord, err := cluster.New(cluster.Config{Targets: []string{"http://127.0.0.1:1"}, Limits: limits})
			if err != nil {
				t.Fatal(err)
			}
			for mode, f := range map[string]*server.Frontend{"server": s.Frontend, "coordinator": coord.Frontend} {
				hs := server.HTTPServer(f, ":0")
				if hs.ReadTimeout != c.wantR || hs.WriteTimeout != c.wantW {
					t.Errorf("%s timeouts = %v/%v, want %v/%v", mode, hs.ReadTimeout, hs.WriteTimeout, c.wantR, c.wantW)
				}
			}
		})
	}
}
