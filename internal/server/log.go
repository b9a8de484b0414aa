package server

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
)

// logfHandler bridges structured records onto a printf-style sink, so
// the legacy Config.Logf (and t.Logf in tests) keeps receiving one line
// per session event after the server's logging moved to log/slog.
type logfHandler struct {
	f     func(format string, args ...any)
	attrs []slog.Attr
}

func (h logfHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (h logfHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString("server: ")
	b.WriteString(r.Message)
	emit := func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value.Any())
		return true
	}
	for _, a := range h.attrs {
		emit(a)
	}
	r.Attrs(emit)
	h.f("%s", b.String())
	return nil
}

func (h logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	h.attrs = append(h.attrs[:len(h.attrs):len(h.attrs)], attrs...)
	return h
}

func (h logfHandler) WithGroup(string) slog.Handler { return h }

// resolveLogger picks the session logger: an explicit Logger wins, a
// printf sink is bridged, and nil leaves the session core's silent
// default.
func (c Config) resolveLogger() *slog.Logger {
	if c.Logger == nil && c.Logf != nil {
		return slog.New(logfHandler{f: c.Logf})
	}
	return c.Logger
}
