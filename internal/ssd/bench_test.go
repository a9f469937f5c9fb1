package ssd

import "testing"

// BenchmarkDeviceBuild times New for preconditioned devices: a scaled
// device at the default fill, and the paper's 128 GiB device at the
// default fill and at the aged runs' 92%. Run it with
// `go test -run '^$' -bench DeviceBuild -benchmem ./internal/ssd`; no
// gate reads it. B/op counts the tables a device allocates, not the
// memory it keeps resident: a table page the OS never backs costs
// nothing until written (docs/PERFORMANCE.md).
func BenchmarkDeviceBuild(b *testing.B) {
	for _, c := range []struct {
		name     string
		p        Params
		fraction float64
	}{
		{"scaled16/fill=0.5", ScaledParams(16), 0.5},
		{"paper/fill=0.5", DefaultParams(), 0.5},
		{"paper/fill=0.92", DefaultParams(), 0.92},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := c.p
			p.Precondition = c.fraction
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
