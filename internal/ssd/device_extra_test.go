package ssd

import "testing"

func TestDeviceGeometryAccessors(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.PageSize() != 4096 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
	fp := tinyParams().Flash
	wantLogical := fp.LogicalPages()
	if d.LogicalPages() != wantLogical {
		t.Fatalf("LogicalPages = %d, want %d", d.LogicalPages(), wantLogical)
	}
}

func TestDeviceTrim(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FlushStriped(0, []int64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim([]int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range trim surfaces as an error.
	if err := d.Trim([]int64{d.LogicalPages()}); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

func TestDeviceUtilization(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FlushStriped(0, []int64{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	u := d.Utilization(100_000_000)
	if u.MeanChannel <= 0 || u.MeanChip <= 0 {
		t.Fatalf("utilization empty after flush: %+v", u)
	}
	if u.MaxChannel < u.MeanChannel || u.MaxChip < u.MeanChip {
		t.Fatalf("max below mean: %+v", u)
	}
}

func TestDeviceFlushErrorsSurface(t *testing.T) {
	d, err := New(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := []int64{d.LogicalPages() + 5}
	if _, err := d.FlushStriped(0, bad); err == nil {
		t.Fatal("striped flush of bad lpn accepted")
	}
	if _, err := d.FlushBlockBound(0, bad); err == nil {
		t.Fatal("block-bound flush of bad lpn accepted")
	}
	if _, err := d.ReadPages(0, bad); err == nil {
		t.Fatal("read of bad lpn accepted")
	}
}
