package main

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net/netip"
	"reflect"
	"regexp"
	"testing"

	"nfp/internal/dataplane"
	"nfp/internal/packet"
)

func TestParseSizes(t *testing.T) {
	if _, err := parseSizesSeeded("dc", 1); err != nil {
		t.Errorf("dc: %v", err)
	}
	d, err := parseSizesSeeded("128", 1)
	if err != nil || d.Next() != 128 {
		t.Errorf("fixed: %v", err)
	}
	for _, bad := range []string{"", "abc", "10", "9000"} {
		if _, err := parseSizesSeeded(bad, 1); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// failingFile accepts limit bytes, then fails every write; Close fails
// with closeErr.
type failingFile struct {
	limit, written int
	closeErr       error
	closed         bool
}

var errDiskFull = errors.New("no space left on device")

func (f *failingFile) Write(b []byte) (int, error) {
	if f.written+len(b) > f.limit {
		n := f.limit - f.written
		f.written = f.limit
		return n, errDiskFull
	}
	f.written += len(b)
	return len(b), nil
}

func (f *failingFile) Close() error { f.closed = true; return f.closeErr }

// TestCaptureReportsWriteError drives -pcap's capture into a file that
// fills up mid-stream: the error must surface from close (and the file
// still be closed), where it used to be discarded per frame.
func TestCaptureReportsWriteError(t *testing.T) {
	frame := packet.Build(packet.BuildSpec{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		Proto: packet.ProtoUDP, SrcPort: 1, DstPort: 2, Payload: make([]byte, 1000),
	})
	for _, limit := range []int{100, 3000, 20000} {
		f := &failingFile{limit: limit}
		c, err := newCapture(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			c.tap(frame)
		}
		if err := c.close(); !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d: close = %v, want the write error", limit, err)
		}
		if !f.closed {
			t.Errorf("limit %d: file left open", limit)
		}
	}

	closeErr := errors.New("close failed")
	f := &failingFile{limit: 1 << 20, closeErr: closeErr}
	c, err := newCapture(f)
	if err != nil {
		t.Fatal(err)
	}
	c.tap(frame)
	if err := c.close(); !errors.Is(err, closeErr) {
		t.Errorf("close = %v, want the close error", err)
	}

	f = &failingFile{limit: 1 << 20}
	if c, err = newCapture(f); err != nil {
		t.Fatal(err)
	}
	c.tap(frame)
	if err := c.close(); err != nil || c.w.Packets() != 1 {
		t.Errorf("healthy capture: close = %v, %d packets", err, c.w.Packets())
	}
}

func TestLoadPolicyVariants(t *testing.T) {
	pol, names, err := loadPolicy("", "monitor,firewall")
	if err != nil || len(names) != 2 || len(pol.Rules) != 1 {
		t.Errorf("chain: %v %v %v", pol, names, err)
	}
	if _, _, err := loadPolicy("", ""); err == nil {
		t.Error("empty accepted")
	}
	if _, _, err := loadPolicy("", "bogus-nf"); err == nil {
		t.Error("unknown NF accepted")
	}
}

// TestConfigSurface pins the size of the control surface — the fields of
// dataplane.Config and the flags of nfpd — so that the next field or
// flag is a conscious, reviewed edit of this test: a switch stays only
// if a BENCHMARK.json workload, an EXPERIMENTS.md figure or a test suite
// selects it (DESIGN.md §14 lists which, per switch).
func TestConfigSurface(t *testing.T) {
	if n := reflect.TypeOf(dataplane.Config{}).NumField(); n != 11 {
		t.Errorf("dataplane.Config has %d fields, want 11", n)
	}
	src, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	define := regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64|Func|Text)?(Var)?$`)
	flags := 0
	ast.Inspect(src, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && define.MatchString(sel.Sel.Name) {
					flags++
				}
			}
		}
		return true
	})
	if flags != 24 {
		t.Errorf("nfpd defines %d flags, want 24", flags)
	}
}
