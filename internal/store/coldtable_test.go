package store

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// coldNameBase is what the cold table tests cut names from: each name is
// a prefix of it and one last byte, so names share prefixes, and they
// hold '/', '%' and NUL.
var coldNameBase = strings.Repeat("svc/a%2Fb\x00-", 26)[:254]

// driveColdTable runs the ops data encodes on a cold table and on a map
// oracle, and fails t at the first difference. Each op is a code byte and
// its arguments:
//
//	0 name, stub   add a name of 1-255 bytes, new or not
//	1 pick, stub   add an app the table holds again (rewrite in place)
//	2 pick         page an app in (mark it warm)
//	3 pick, memo   set a cold app's memo
//
// A stub is 17 bytes of page ref, total and memo. After the ops it checks
// every name, the cold count, each's order, and that every name the table
// handed out still reads as its app.
func driveColdTable(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 { return uint64(next()) | uint64(next())<<8 | uint64(next())<<16 | uint64(next())<<24 }
	stub := func() coldApp {
		return coldApp{
			ref: pageRef{
				seq:    word(),
				off:    int64(word()) << 8,
				recLen: int32(word() % (maxRefLen + 1)),
				count:  uint32(next()) << 12,
			},
			total: int64(next()) << 33,
			memo:  Memo{Len: uint32(next()), Gen: uint32(next()) << 24, Group: next()},
		}
	}
	var tab coldTable
	cold := map[string]coldApp{} // the oracle: every cold app
	var order []string           // every name added, first add first
	added := map[string]bool{}
	views := map[string]string{} // a name the table handed out, by app
	pick := func() string { return order[int(next())%len(order)] }
	lookup := func(app string) {
		e := tab.get(app)
		want, ok := cold[app]
		if ok != (e != nil) {
			t.Fatalf("get(%q) = %v, want an entry: %v", app, e, ok)
		}
		if e != nil {
			if got := (coldApp{e.ref(), e.total, e.memo()}); got != want {
				t.Fatalf("%q: entry %+v, want %+v", app, got, want)
			}
			views[app] = tab.name(e)
		}
	}
	for len(data) > 0 {
		switch next() % 4 {
		case 0:
			n, last := 1+int(next())%255, next()%8
			app := coldNameBase[:n-1] + string(rune('0'+last))
			c := stub()
			if err := tab.add(app, c); err != nil {
				t.Fatal(err)
			}
			if !added[app] {
				added[app] = true
				order = append(order, app)
			}
			cold[app] = c
			lookup(app)
		case 1:
			if len(order) == 0 {
				continue
			}
			app, c := pick(), stub()
			if err := tab.add(app, c); err != nil {
				t.Fatal(err)
			}
			cold[app] = c
			lookup(app)
		case 2:
			if len(order) == 0 {
				continue
			}
			app := pick()
			if e := tab.get(app); e != nil {
				tab.markWarm(e)
			}
			delete(cold, app)
			lookup(app)
		case 3:
			if len(order) == 0 {
				continue
			}
			app, m := pick(), Memo{Len: uint32(next()), Gen: uint32(next()), Group: next()}
			if e := tab.get(app); e != nil {
				e.setMemo(m)
				c := cold[app]
				c.memo = m
				cold[app] = c
			}
			lookup(app)
		}
	}
	if tab.len() != len(cold) {
		t.Fatalf("len() = %d, want %d", tab.len(), len(cold))
	}
	for _, app := range order {
		lookup(app)
	}
	for i := 1; i < 256; i += 7 { // names never added
		if app := coldNameBase[:i-1] + "z"; tab.get(app) != nil {
			t.Fatalf("get(%q) found an app never added", app)
		}
	}
	var got, want []string
	for _, app := range order {
		if _, ok := cold[app]; ok {
			want = append(want, app)
		}
	}
	tab.each(func(app string, _ *coldEntry) error {
		got = append(got, app)
		return nil
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("each visits %d apps %q, want %d in first-cold order %q", len(got), got, len(want), want)
	}
	for app, v := range views {
		if v != app {
			t.Fatalf("a name handed out for %q now reads %q", app, v)
		}
	}
}

// TestColdTableMatchesMap drives the cold table against a map oracle
// through random adds, rewrites, page-ins and memo updates, over thousands
// of names, so the index grows many times; then names longer than an
// arena chunk, which take chunks of their own.
func TestColdTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{0, 1, 40, 4000, 120000} {
		data := make([]byte, n)
		rng.Read(data)
		driveColdTable(t, data)
	}

	var tab coldTable
	long := map[string]coldApp{}
	for i, n := range []int{arenaChunk - 2, arenaChunk - 1, arenaChunk, 3 * arenaChunk, 10, arenaChunk + 1, 1} {
		app := strings.Repeat(string(rune('a'+i)), n)
		c := coldApp{ref: pageRef{seq: uint64(i), recLen: int32(n)}, total: int64(i)}
		if err := tab.add(app, c); err != nil {
			t.Fatal(err)
		}
		long[app] = c
	}
	for app, c := range long {
		e := tab.get(app)
		if e == nil || tab.name(e) != app || e.ref() != c.ref || e.total != c.total {
			t.Fatalf("the %d-byte name: entry %+v", len(app), e)
		}
	}
}

// FuzzColdTable is TestColdTableMatchesMap's oracle check on any op
// stream.
func FuzzColdTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 2, 0})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 3000)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) { driveColdTable(t, data) })
}

// TestColdEntryHoldsNoPointer walks coldEntry's type: a field that is or
// holds a pointer would make every page of the table one the collector
// scans.
func TestColdEntryHoldsNoPointer(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(coldEntry{}), "coldEntry")
	walk(reflect.TypeOf([coldPageLen]coldEntry{}), "page")
}
