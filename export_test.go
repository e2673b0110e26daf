package dynppr

import "reflect"

// SourceBytes sums the cap() bytes of every slice a tracked source's
// push.State and push.SnapshotSlot hold, per field path (the two snapshot
// headers' fields summed under one name), so a per-source memory test can
// name the slice that grew. Pointers are followed only into package push:
// the shared graph and the work counters are not the source's own.
func SourceBytes(s *Service, source VertexID) map[string]int {
	src := (*s.table.Load())[source]
	out := map[string]int{}
	sliceBytes(out, "State", reflect.ValueOf(src.st))
	sliceBytes(out, "SnapshotSlot", reflect.ValueOf(src.slot))
	return out
}

func sliceBytes(out map[string]int, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Type().Elem().PkgPath() == "dynppr/internal/push" {
			sliceBytes(out, path, v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			sliceBytes(out, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			sliceBytes(out, path, v.Index(i))
		}
	case reflect.Slice:
		out[path] += v.Cap() * int(v.Type().Elem().Size())
	}
}
