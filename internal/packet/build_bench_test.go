package packet_test

import (
	"testing"

	"nfp/internal/packet"
	"nfp/internal/trafficgen"
)

// BenchmarkBuildInto is the injector's per-packet build: a 64 B TCP
// frame (fwd64's traffic) and frames drawn from the Benson datacenter
// size mix (fig13_dcmix's), each spec as the traffic generator makes it
// — zero-filled payload, sized by Size — built into one warm pool-sized
// buffer. It fails if a build allocates.
func BenchmarkBuildInto(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes trafficgen.SizeDist
	}{
		{"TCP64", trafficgen.Fixed(64)},
		{"DCMix", trafficgen.NewDataCenter(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			gen := trafficgen.New(trafficgen.Config{Flows: 1024, Sizes: bc.sizes, Seed: 1})
			specs := make([]packet.BuildSpec, 1024)
			var bytes int
			for i := range specs {
				specs[i] = gen.Next()
				bytes += specs[i].Size
			}
			p := packet.New(make([]byte, 2048))
			if a := testing.AllocsPerRun(1000, func() { packet.BuildInto(p, specs[0]) }); a != 0 {
				b.Fatalf("%v allocs/op, want 0", a)
			}
			b.SetBytes(int64(bytes / len(specs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				packet.BuildInto(p, specs[i&1023])
			}
		})
	}
}
