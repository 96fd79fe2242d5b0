package nfp

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"nfp/internal/nf"
	"nfp/internal/packet"
)

func TestFacadeCompileWestEast(t *testing.T) {
	pol := FromChain(NFIDS, NFMonitor, NFLoadBalancer)
	sys := NewSystem()
	// The built-in NFs carry measured costs: monitor || lb saves less
	// than its copy and merge cost, so it runs as a chain.
	res, err := sys.Compile(pol, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if EquivalentLength(res.Graph) != 3 || TotalCopies(res.Graph) != 0 {
		t.Errorf("graph = %v, want the 3-NF chain", res.Graph)
	}
	if len(res.Stages) != 1 || res.Stages[0].Parallel {
		t.Errorf("stages = %v, want monitor || lb judged sequential", res.Stages)
	}
	// Registered without a cost, as a third-party NF is, the same NFs
	// compile to the paper's west-east graph.
	reg := nf.NewRegistry()
	for _, name := range pol.NFs() {
		prof, _ := sys.Profile(name)
		prof.CostNS = 0
		if err := sys.RegisterNF(name, prof, func() (NetworkFunction, error) { return reg.New(name) }); err != nil {
			t.Fatal(err)
		}
	}
	res, err = sys.Compile(pol, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if EquivalentLength(res.Graph) != 2 {
		t.Errorf("length = %d, want 2", EquivalentLength(res.Graph))
	}
	if TotalCopies(res.Graph) != 1 {
		t.Errorf("copies = %d, want 1", TotalCopies(res.Graph))
	}
	if !strings.Contains(GraphDOT(res.Graph, "we"), "monitor") {
		t.Error("DOT export broken")
	}
}

func TestFacadeDeployAndRun(t *testing.T) {
	sys := NewSystem()
	srv, res, err := sys.Deploy(
		FromChain(NFMonitor, NFFirewall),
		CompileOptions{},
		ServerConfig{PoolSize: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	if EquivalentLength(res.Graph) != 2 {
		t.Errorf("monitor -> firewall length = %d (a stage this light runs as a chain)", EquivalentLength(res.Graph))
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		n := 0
		for p := range srv.Output() {
			n++
			p.Free()
		}
		done <- n
	}()
	for i := 0; i < 10; i++ {
		p := srv.Pool().Get()
		BuildPacketInto(p, BuildSpec{
			SrcIP: netip.MustParseAddr("10.0.0.1"),
			DstIP: netip.MustParseAddr("10.0.0.2"),
			Proto: packet.ProtoTCP, SrcPort: 1000, DstPort: 80, Size: 64,
		})
		if !srv.Inject(p) {
			t.Fatal("inject failed")
		}
	}
	srv.Stop()
	if n := <-done; n != 10 {
		t.Errorf("outputs = %d", n)
	}
}

func TestFacadeRegisterCustomNF(t *testing.T) {
	sys := NewSystem()
	prof := Profile{Actions: []Action{ReadAction(FieldTTL), WriteAction(FieldTTL)}}
	err := sys.RegisterNF("ttl-scrubber", prof, func() (NetworkFunction, error) {
		return nf.NewSynthetic(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sys.Profile("ttl-scrubber")
	if !ok || got.Name != "ttl-scrubber" {
		t.Fatalf("profile = %+v, %v", got, ok)
	}
	// The custom NF participates in compilation.
	res, err := sys.Compile(FromChain("ttl-scrubber", NFMonitor), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// TTL writer vs tuple reader: disjoint fields, parallel, no copy.
	if EquivalentLength(res.Graph) != 1 || TotalCopies(res.Graph) != 0 {
		t.Errorf("graph = %v", res.Graph)
	}
}

func TestFacadeInspectAndRegister(t *testing.T) {
	sys := NewSystem()
	prof, err := sys.InspectAndRegisterNF("my-monitor", "internal/nf/monitor.go",
		func() (NetworkFunction, error) { return nf.NewMonitor(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(prof.Actions, ReadAction(FieldSrcIP)) {
		t.Errorf("inspected profile = %v", prof)
	}
	if _, err := sys.InspectAndRegisterNF("x", "/missing.go", nil); err == nil {
		t.Error("missing source accepted")
	}
}

func TestFacadePolicyParsing(t *testing.T) {
	pol, err := ParsePolicyString("Position(vpn, first)\nOrder(firewall, before, lb)")
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Rules) != 2 {
		t.Errorf("rules = %v", pol.Rules)
	}
	if Order("a", "b").String() != "Order(a, before, b)" {
		t.Error("rule constructors broken")
	}
	if Position("a", Last).String() != "Position(a, last)" {
		t.Error("position constructor broken")
	}
	if Priority("a", "b").Kind.String() != "Priority" {
		t.Error("priority constructor broken")
	}
}
