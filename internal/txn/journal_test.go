package txn

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simfs"
)

// journalOps stages one op of every kind, with strings that need JSON
// escaping, an indented spec document and binary file content.
var journalOps = []Op{
	{Kind: OpInsertRecord, Hash: "h1", Spec: json.RawMessage("{\n  \"root\": \"libelf\",\n  \"nodes\": {\n    \"libelf\": \"libelf@0.8.13\"\n  }\n}"),
		Prefix: "/opt/libelf <1> & \"q\"", Explicit: true, Origin: "binary",
		SplicedFrom: "h0", Lineage: []string{"ha", "hb\\é"}},
	{Kind: OpInsertRecord, Hash: "h2", Spec: json.RawMessage(`{"root":"zlib","nodes":{"zlib":"zlib"}}`), Prefix: "/opt/zlib"},
	{Kind: OpRemoveRecord, Hash: "h3"},
	{Kind: OpRemovePrefix, Path: "/opt/old"},
	{Kind: OpLink, Path: "/view/libelf", Target: "/opt/libelf <1> & \"q\""},
	{Kind: OpUnlink, Path: "/view/gone\t"},
	{Kind: OpWriteFile, Path: "/share/dotkit/libelf.dk", Content: []byte("#c\n\x00\xff module")},
	{Kind: OpWriteFile, Path: "/share/dotkit/empty.dk"},
	{Kind: OpRemoveFile, Path: "/share/dotkit/old.dk"},
}

// TestJournalDecodesToStagedOps reads a flushed journal back with
// encoding/json, as Recover does, and checks that it yields exactly the
// staged document; the indented format written before ops were encoded
// at staging decodes to the same document.
func TestJournalDecodesToStagedOps(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	tx := Begin(fs, journalDir)
	defer tx.Rollback()
	for _, op := range journalOps {
		tx.Stage(op)
	}
	if err := tx.RecordPrefix("/opt/libelf <1> & \"q\""); err != nil {
		t.Fatal(err)
	}
	if err := tx.RecordPrefix("/opt/zlib"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(tx.file)
	if err != nil {
		t.Fatal(err)
	}
	want := journalDoc{ID: tx.id, Status: statusActive,
		Created: []string{"/opt/libelf <1> & \"q\"", "/opt/zlib"}, Ops: journalOps}
	var got journalDoc
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("journal does not decode: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded journal differs\ngot:  %+v\nwant: %+v", got, want)
	}
	if !strings.HasPrefix(string(data), `{"id":"`+tx.id+`","status":"active","created":[`) {
		t.Errorf("journal is not compact JSON:\n%s", data)
	}

	indented, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var old journalDoc
	if err := json.Unmarshal(indented, &old); err != nil {
		t.Fatal(err)
	}
	for i := range old.Ops {
		// MarshalIndent re-indents the embedded spec; compare it compacted.
		old.Ops[i].Spec = compact(t, old.Ops[i].Spec)
		got.Ops[i].Spec = compact(t, got.Ops[i].Spec)
	}
	if !reflect.DeepEqual(got, old) {
		t.Errorf("indented journal decodes differently\ngot:  %+v\nwant: %+v", old, got)
	}
}

func compact(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	if raw == nil {
		return nil
	}
	out, err := json.Marshal(raw) // marshalling a RawMessage compacts it
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverReplaysIndentedJournal replays a committed journal in the
// indented layout encoding/json used to write.
func TestRecoverReplaysIndentedJournal(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	if err := fs.MkdirAll(journalDir); err != nil {
		t.Fatal(err)
	}
	doc := journalDoc{ID: "txn-old", Status: statusCommitted, Created: []string{"/opt/pkg-1"},
		Ops: []Op{
			{Kind: OpInsertRecord, Hash: "h1", Spec: json.RawMessage(`{"root":"pkg","nodes":{"pkg":"pkg@1"}}`), Prefix: "/opt/pkg-1", Explicit: true},
			{Kind: OpWriteFile, Path: "/share/dotkit/pkg.dk", Content: []byte("module")},
			{Kind: OpLink, Path: "/view/pkg", Target: "/opt/pkg-1"},
		}}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(journalDir+"/txn-old.json", data); err != nil {
		t.Fatal(err)
	}
	ap := newMemApplier()
	stats, err := Recover(fs, journalDir, ap)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 || ap.records["h1"] != "/opt/pkg-1" {
		t.Errorf("stats %+v, records %v", stats, ap.records)
	}
	if content, err := fs.ReadFile("/share/dotkit/pkg.dk"); err != nil || string(content) != "module" {
		t.Errorf("module file = %q, %v", content, err)
	}
	if got := readlink(t, fs, "/view/pkg"); got != "/opt/pkg-1" {
		t.Errorf("link = %q", got)
	}
}
