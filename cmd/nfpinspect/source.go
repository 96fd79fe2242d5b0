package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// source is the flag set every reader subcommand shares: the running
// nfpd to read (-addr) and whether to emit its raw JSON (-json).
type source struct {
	fs     *flag.FlagSet
	addr   string
	asJSON bool
}

func newSource(name, addrUse string) *source {
	s := &source{fs: flag.NewFlagSet(name, flag.ExitOnError)}
	s.fs.StringVar(&s.addr, "addr", "", addrUse)
	s.fs.BoolVar(&s.asJSON, "json", false, "emit the server's raw JSON instead of the report")
	return s
}

// parseAddr parses args and exits with the subcommand's synopsis
// unless they name a server; extra lists the subcommand's own flags.
func (s *source) parseAddr(args []string, extra string) {
	_ = s.fs.Parse(args)
	if s.addr == "" {
		fmt.Fprintf(os.Stderr, "usage: nfpinspect %s -addr HOST:PORT%s [-json]\n", s.fs.Name(), extra)
		os.Exit(2)
	}
}

// get reads one endpoint of the server at -addr.
func (s *source) get(path string) ([]byte, error) {
	addr := s.addr
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %s", addr+path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// fetch decodes one JSON endpoint of the server at -addr into v.
func (s *source) fetch(path string, v any) error {
	raw, err := s.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// show renders one JSON endpoint: as the server sent it under -json,
// else decoded into T and printed.
func show[T any](s *source, path string, print func(T)) error {
	raw, err := s.get(path)
	if err != nil {
		return err
	}
	if s.asJSON {
		return emitJSON(json.RawMessage(raw))
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	print(v)
	return nil
}

// emitJSON writes v to stdout as indented JSON.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
