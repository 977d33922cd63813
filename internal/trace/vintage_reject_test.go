package trace_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vani/internal/core"
	"vani/internal/pipeline"
	"vani/internal/repo"
	"vani/internal/server"
	"vani/internal/trace"
)

// TestOldVintagesAreBadFormat: a log in a retired layout is refused by name
// — an ErrBadFormat that says which vintage it is — at every door bytes come
// in by: the block reader, the streaming scanner, the file pipeline, a vanid
// upload and a repository add. Never a panic, never a misparse.
func TestOldVintagesAreBadFormat(t *testing.T) {
	srv, err := server.New(server.Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rp, err := repo.Open(t.TempDir(), repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Close() })

	for _, v := range trace.OldVintages(t) {
		t.Run(v.Name, func(t *testing.T) {
			refused := func(door string, err error) {
				t.Helper()
				if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), v.Want) {
					t.Errorf("%s: got %v, want ErrBadFormat naming %s", door, err, v.Want)
				}
			}

			_, err := trace.NewBlockReader(bytes.NewReader(v.Data), int64(len(v.Data)))
			refused("NewBlockReader", err)
			_, err = trace.NewScanner(bytes.NewReader(v.Data))
			refused("NewScanner", err)

			path := filepath.Join(t.TempDir(), "old.trc")
			if err := os.WriteFile(path, v.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = pipeline.File(context.Background(), path, core.DefaultOptions())
			refused("pipeline.File", err)

			resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(v.Data))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), v.Want) {
				t.Errorf("upload: %d %s, want 400 naming %s", resp.StatusCode, msg, v.Want)
			}

			_, _, err = rp.Add(bytes.NewReader(v.Data))
			refused("repo.Add", err)
			if !errors.Is(err, repo.ErrNotTrace) {
				t.Errorf("repo.Add: got %v, want ErrNotTrace", err)
			}
		})
	}
}
