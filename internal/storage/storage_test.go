package storage

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/dbhammer/mirage/internal/relalg"
)

func testSchema() *relalg.Schema {
	return &relalg.Schema{Tables: []*relalg.Table{
		{
			Name: "s", Rows: 4,
			Columns: []relalg.Column{
				{Name: "s_pk", Kind: relalg.PrimaryKey},
				{Name: "s1", Kind: relalg.NonKey, DomainSize: 4},
			},
		},
		{
			Name: "t", Rows: 8,
			Columns: []relalg.Column{
				{Name: "t_pk", Kind: relalg.PrimaryKey},
				{Name: "t_fk", Kind: relalg.ForeignKey, Refs: "s"},
				{Name: "t1", Kind: relalg.NonKey, DomainSize: 5},
			},
		},
	}}
}

func TestTableDataBasics(t *testing.T) {
	db := NewDB(testSchema())
	s := db.Table("s")
	s.SetCol("s1", []int64{10, 20, 30, 40})
	if s.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4", s.Rows())
	}
	var pk, s1 [1]int64
	if err := s.Fill("s_pk", pk[:], 1, 2); err != nil || pk[0] != 2 {
		t.Fatalf("Fill(s_pk) row 1 = %d, %v; want 2", pk[0], err)
	}
	if err := s.Fill("s1", s1[:], 1, 2); err != nil || s1[0] != 20 {
		t.Fatalf("Fill(s1) row 1 = %d, %v; want 20", s1[0], err)
	}
	s.SetCol("s1", []int64{10, 20, 30, 40, 50})
	if err := s.CheckAligned(); err == nil {
		t.Fatal("CheckAligned: want misalignment error")
	}
}

func TestLookupVsMustAccessors(t *testing.T) {
	db := NewDB(testSchema())
	s := db.Table("s")
	s.SetCol("s1", []int64{10, 20, 30, 40})

	if _, err := db.Lookup("nope"); err == nil {
		t.Fatal("DB.Lookup(nope): want error")
	}
	tab, err := db.Lookup("s")
	if err != nil || tab != s {
		t.Fatalf("DB.Lookup(s) = %v, %v", tab, err)
	}
	if _, err := s.Column("missing"); err == nil {
		t.Fatal("TableData.Column(missing): want error")
	}
	if vals := s.Col("s1"); len(vals) != 4 || vals[0] != 10 {
		t.Fatalf("TableData.Col(s1) = %v", vals)
	}
	if vals := s.Col("s_pk"); vals != nil {
		t.Fatalf("TableData.Col(s_pk) = %v, want nil: the key is not stored", vals)
	}

	// The Must variants still panic — generator-internal contract.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DB.Table(nope): want panic")
			}
		}()
		db.Table("nope")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TableData.Col(missing): want panic")
			}
		}()
		s.Col("missing")
	}()
}

func TestDBCheckForeignKeys(t *testing.T) {
	db := NewDB(testSchema())
	db.Table("s").SetCol("s1", []int64{1, 2, 3, 4})
	tt := db.Table("t")
	tt.Meta.Rows = 3
	tt.SetCol("t1", []int64{1, 1, 2})
	tt.SetCol("t_fk", []int64{1, 4, Null})
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	tt.SetCol("t_fk", []int64{1, 5, 2})
	if err := db.Check(); err == nil {
		t.Fatal("Check: want dangling-fk error")
	}
}

func TestIntCodec(t *testing.T) {
	c := IntCodec{Base: 100, Step: 10}
	v, err := c.Encode("120")
	if err != nil || v != 3 {
		t.Fatalf("Encode(120) = %d, %v", v, err)
	}
	if got := c.Decode(3); got != "120" {
		t.Fatalf("Decode(3) = %q", got)
	}
	if got := (IntCodec{}).Decode(7); got != "7" {
		t.Fatalf("identity Decode(7) = %q", got)
	}
	if got := c.Decode(Null); got != "NULL" {
		t.Fatalf("Decode(Null) = %q", got)
	}
	if _, err := c.Encode("abc"); err == nil {
		t.Fatal("Encode(abc): want error")
	}
}

func TestDecimalCodec(t *testing.T) {
	c := DecimalCodec{Base: 0, Step: 1, Scale: 2}
	v, err := c.Encode("1.05")
	if err != nil || v != 106 {
		t.Fatalf("Encode(1.05) = %d, %v", v, err)
	}
	if got := c.Decode(106); got != "1.05" {
		t.Fatalf("Decode(106) = %q", got)
	}
	if got := c.Decode(1); got != "0.00" {
		t.Fatalf("Decode(1) = %q", got)
	}
	neg := DecimalCodec{Base: -500, Step: 1, Scale: 2}
	v, err = neg.Encode("-4.99")
	if err != nil || v != 2 {
		t.Fatalf("Encode(-4.99) = %d, %v", v, err)
	}
	if got := neg.Decode(2); got != "-4.99" {
		t.Fatalf("Decode(2) = %q", got)
	}
}

func TestDateCodec(t *testing.T) {
	c := DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)}
	v, err := c.Encode("1992-01-03")
	if err != nil || v != 3 {
		t.Fatalf("Encode = %d, %v", v, err)
	}
	if got := c.Decode(3); got != "1992-01-03" {
		t.Fatalf("Decode(3) = %q", got)
	}
	roundTrip := []string{"1992-01-01", "1995-06-17", "1998-12-31"}
	for _, d := range roundTrip {
		v, err := c.Encode(d)
		if err != nil {
			t.Fatalf("Encode(%s): %v", d, err)
		}
		if got := c.Decode(v); got != d {
			t.Fatalf("round trip %s -> %d -> %s", d, v, got)
		}
	}
}

func TestDictCodecAndLike(t *testing.T) {
	c := NewDictCodec([]string{"AIR", "RAIL", "SHIP", "TRUCK", "AIR REG"})
	v, err := c.Encode("SHIP")
	if err != nil || v != 3 {
		t.Fatalf("Encode(SHIP) = %d, %v", v, err)
	}
	if got := c.Decode(3); got != "SHIP" {
		t.Fatalf("Decode(3) = %q", got)
	}
	if v, _ := c.Encode("nope"); v != Null {
		t.Fatalf("Encode(unknown) = %d, want Null", v)
	}
	got := c.MatchLike("AIR%")
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("MatchLike(AIR%%) = %v", got)
	}
	got = c.MatchLike("%R%")
	if len(got) != 4 {
		t.Fatalf("MatchLike(%%R%%) = %v, want 4 values", got)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a%c", "abc", true},
		{"a%c", "ac", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%", "anything", true},
		{"", "", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.pat, tc.s); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
	}
}

func TestExportCSV(t *testing.T) {
	db := NewDB(testSchema())
	s := db.Table("s")
	s.Meta.Rows = 2
	s.SetCol("s1", []int64{2, 1})
	codecs := CodecSet{"s.s1": NewDictCodec([]string{"RED", "BLUE"})}
	var sb strings.Builder
	if err := ExportCSV(&sb, s, codecs); err != nil {
		t.Fatalf("ExportCSV: %v", err)
	}
	want := "s_pk,s1\n1,BLUE\n2,RED\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestCodecSetDefault(t *testing.T) {
	cs := CodecSet{}
	if _, ok := cs.For("t", "c").(IntCodec); !ok {
		t.Fatal("CodecSet.For default should be IntCodec")
	}
}

// TestCodecRoundTripsQuick property-tests Encode∘Decode = identity on the
// cardinality space for every scalar codec.
func TestCodecRoundTripsQuick(t *testing.T) {
	codecs := []Codec{
		IntCodec{},
		IntCodec{Base: -50, Step: 3},
		DecimalCodec{Base: -9900, Step: 7, Scale: 2},
		DecimalCodec{Base: 0, Step: 1, Scale: 4},
		DateCodec{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)},
		DateCodec{Start: time.Date(2000, 6, 15, 0, 0, 0, 0, time.UTC), StepDays: 7},
	}
	f := func(raw uint16) bool {
		v := int64(raw%10000) + 1
		for _, c := range codecs {
			back, err := c.Encode(c.Decode(v))
			if err != nil || back != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDictCodecRoundTripQuick(t *testing.T) {
	dict := make([]string, 100)
	for i := range dict {
		dict[i] = fmt.Sprintf("val_%03d", i)
	}
	c := NewDictCodec(dict)
	f := func(raw uint8) bool {
		v := int64(raw%100) + 1
		back, err := c.Encode(c.Decode(v))
		return err == nil && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
