//===--- Protocol.cpp - Wire codec for the analysis service -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "observe/Phase.h"
#include "support/StringExtras.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <set>

using namespace mix;
using namespace mix::service;

// === Encoding ================================================================

namespace {

/// Appends one "key": value member, comma-separating after the first.
class ObjectWriter {
public:
  std::string take() { return Out + "}"; }

  ObjectWriter &str(const char *Key, const std::string &V) {
    return raw(Key, "\"" + jsonEscape(V) + "\"");
  }
  ObjectWriter &num(const char *Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  ObjectWriter &boolean(const char *Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  ObjectWriter &raw(const char *Key, const std::string &Json) {
    Out += First ? "{" : ", ";
    First = false;
    Out += "\"" + std::string(Key) + "\": " + Json;
    return *this;
  }

private:
  std::string Out;
  bool First = true;
};

const char *toolName(Tool T) {
  return T == Tool::MixCheck ? "mixcheck" : "mixy";
}

const char *formatName(Format F) {
  switch (F) {
  case Format::Text:
    return "text";
  case Format::Json:
    return "json";
  case Format::Sarif:
    return "sarif";
  }
  return "text";
}

} // namespace

std::string mix::service::encodeRequest(const AnalysisRequest &Req) {
  ObjectWriter W;
  W.num("version", (uint64_t)Req.Version).str("tool", toolName(Req.ToolKind));

  if (Req.HasSource)
    W.str("source", Req.Source);
  if (!Req.Corpus.empty())
    W.str("corpus", Req.Corpus);
  if (!Req.Path.empty())
    W.str("path", Req.Path);
  if (!Req.InputName.empty())
    W.str("input_name", Req.InputName);

  if (Req.OutputFormat != Format::Text)
    W.str("format", formatName(Req.OutputFormat));
  if (Req.Explain)
    W.boolean("explain", true);
  if (Req.Solver.Backend != smt::SolverSpec().Backend)
    W.str("solver", Req.Solver.Backend);
  if (Req.Trace)
    W.boolean("trace", true);
  if (!Req.CacheDir.empty())
    W.str("cache_dir", Req.CacheDir);
  if (Req.Incremental)
    W.boolean("incremental", true);

  // mixcheck knobs (wire values mirror the CLI flag values).
  if (Req.Symbolic)
    W.str("mode", "symbolic");
  if (Req.AutoPlace)
    W.boolean("auto_place", true);
  if (Req.PrintProgram)
    W.boolean("print_program", true);
  if (Req.Strategy != SymExecOptions::Strategy::Fork)
    W.str("strategy", "defer");
  if (Req.Havoc != SymExecOptions::HavocPolicy::FullMemory)
    W.str("havoc", "effects");
  if (Req.PreciseDeref)
    W.boolean("precise_deref", true);
  if (Req.AssumeComplete)
    W.boolean("assume_complete", true);
  if (Req.Explore != MixOptions::Exploration::AllPaths)
    W.str("explore", "concolic");
  if (!Req.Vars.empty()) {
    std::string Arr = "[";
    for (size_t I = 0; I != Req.Vars.size(); ++I) {
      if (I)
        Arr += ", ";
      Arr += "{\"name\": \"" + jsonEscape(Req.Vars[I].first) +
             "\", \"type\": \"" + jsonEscape(Req.Vars[I].second) + "\"}";
    }
    W.raw("vars", Arr + "]");
  }

  // mixy knobs.
  if (Req.Baseline)
    W.boolean("baseline", true);
  if (Req.Entry != "main")
    W.str("entry", Req.Entry);
  if (Req.StartSymbolic)
    W.str("start", "symbolic");
  if (Req.NoCache)
    W.boolean("no_cache", true);
  if (Req.NoAliasRestore)
    W.boolean("no_alias_restore", true);
  if (Req.WarnDerefs)
    W.boolean("warn_derefs", true);

  return W.take();
}

std::string mix::service::encodeResponse(const AnalysisResponse &Resp) {
  ObjectWriter W;
  W.num("version", (uint64_t)Resp.Version).num("exit", (uint64_t)Resp.Exit);

  if (!Resp.Payload.empty())
    W.str("payload", Resp.Payload);
  if (!Resp.ErrorText.empty())
    W.str("error_text", Resp.ErrorText);
  if (Resp.Warnings)
    W.num("warnings", Resp.Warnings);
  if (Resp.Errors)
    W.num("errors", Resp.Errors);
  if (Resp.Accepted)
    W.boolean("accepted", true);
  if (!Resp.ResultType.empty())
    W.str("result_type", Resp.ResultType);
  if (!Resp.AutoPlaceNote.empty())
    W.str("auto_place_note", Resp.AutoPlaceNote);
  if (!Resp.PrintedProgram.empty())
    W.str("printed_program", Resp.PrintedProgram);
  if (!Resp.SymCacheStats.empty())
    W.str("sym_cache_stats", Resp.SymCacheStats);
  if (!Resp.TypedCacheStats.empty())
    W.str("typed_cache_stats", Resp.TypedCacheStats);

  if (!Resp.Diagnostics.empty()) {
    std::string Arr = "[";
    for (size_t I = 0; I != Resp.Diagnostics.size(); ++I) {
      const DiagnosticSummary &D = Resp.Diagnostics[I];
      if (I)
        Arr += ", ";
      Arr += "{\"id\": \"" + jsonEscape(D.Id) + "\", \"severity\": \"" +
             jsonEscape(D.Severity) + "\", \"line\": " +
             std::to_string(D.Line) + ", \"column\": " +
             std::to_string(D.Column) + ", \"message\": \"" +
             jsonEscape(D.Message) + "\"}";
    }
    W.raw("diagnostics", Arr + "]");
  }

  if (!Resp.Metrics.empty()) {
    std::string Obj = "{";
    for (size_t I = 0; I != Resp.Metrics.size(); ++I) {
      if (I)
        Obj += ", ";
      Obj += "\"" + jsonEscape(Resp.Metrics[I].first) +
             "\": " + std::to_string(Resp.Metrics[I].second);
    }
    W.raw("metrics", Obj + "}");
  }

  if (!Resp.RequestId.empty())
    W.str("request_id", Resp.RequestId);
  if (Resp.TotalUs)
    W.num("total_us", Resp.TotalUs);
  {
    std::string Obj;
    for (unsigned I = 0; I != obs::NumPhases; ++I) {
      if (!Resp.PhaseUs[I])
        continue;
      Obj += Obj.empty() ? "{" : ", ";
      Obj += "\"" + std::string(obs::phaseName((obs::Phase)I)) +
             "\": " + std::to_string(Resp.PhaseUs[I]);
    }
    if (!Obj.empty())
      W.raw("phases", Obj + "}");
  }
  if (!Resp.Spans.empty()) {
    // Span args are pre-rendered JSON whose decode would need a value
    // re-renderer; the wire span tree carries the structural fields only
    // (the server-side global trace keeps the full events).
    std::string Arr = "[";
    for (size_t I = 0; I != Resp.Spans.size(); ++I) {
      const obs::TraceEvent &E = Resp.Spans[I];
      if (I)
        Arr += ", ";
      Arr += "{\"name\": \"" + jsonEscape(E.Name) + "\", \"cat\": \"" +
             jsonEscape(E.Cat) + "\"";
      if (E.Ph != obs::TracePhase::Complete) {
        Arr += ", \"ph\": \"";
        Arr += (char)E.Ph;
        Arr += "\"";
      }
      Arr += ", \"ts\": " + std::to_string(E.Ts);
      if (E.Dur)
        Arr += ", \"dur\": " + std::to_string(E.Dur);
      if (E.Tid)
        Arr += ", \"tid\": " + std::to_string(E.Tid);
      Arr += "}";
    }
    W.raw("spans", Arr + "]");
  }

  if (Resp.FromCache)
    W.boolean("from_cache", true);
  if (Resp.Deduped)
    W.boolean("deduped", true);

  return W.take();
}

// === Decoding ================================================================

namespace {

/// Stores \p F into \p Out when it is a non-negative integer that IntT
/// can represent; false otherwise. 2^digits is exactly representable as a
/// double, so the bound also rejects values the double-to-IntT cast could
/// not represent (that conversion would be undefined behavior, not
/// saturation).
template <typename IntT> bool toInteger(const json::Value &F, IntT &Out) {
  if (!F.isNumber() || F.Num != std::floor(F.Num) || F.Num < 0 ||
      F.Num >= std::ldexp(1.0, std::numeric_limits<IntT>::digits))
    return false;
  Out = (IntT)F.Num;
  return true;
}

/// Strict field walk: every member must name a known field of the right
/// type; the first violation aborts with an error naming the field.
class Decoder {
public:
  Decoder(const json::Value &V, std::string &Error) : V(V), Error(Error) {}

  bool str(const char *Name, std::string &Out) {
    return field(Name, [&](const json::Value &F) {
      if (!F.isString())
        return fail(Name, "a string");
      Out = F.Str;
      return true;
    });
  }

  bool boolean(const char *Name, bool &Out) {
    return field(Name, [&](const json::Value &F) {
      if (!F.isBool())
        return fail(Name, "a boolean");
      Out = F.B;
      return true;
    });
  }

  template <typename IntT> bool num(const char *Name, IntT &Out) {
    return field(Name, [&](const json::Value &F) {
      return toInteger(F, Out) || fail(Name, "a non-negative integer");
    });
  }

  /// One-of-strings field, e.g. mode("format", {{"text", ...}, ...}).
  bool keyword(const char *Name,
               std::initializer_list<std::pair<const char *,
                                               std::function<void()>>> Cases) {
    return field(Name, [&](const json::Value &F) {
      if (F.isString())
        for (const auto &[Word, Apply] : Cases)
          if (F.Str == Word) {
            Apply();
            return true;
          }
      std::string Expected;
      for (const auto &[Word, Apply] : Cases)
        Expected += (Expected.empty() ? "" : "|") + std::string(Word);
      return fail(Name, "one of " + Expected);
    });
  }

  bool raw(const char *Name,
           const std::function<bool(const json::Value &)> &Apply) {
    return field(Name, Apply);
  }

  /// After all known fields are declared: reject anything left over.
  bool finish(const char *What) {
    if (!Ok)
      return false;
    for (const auto &[Key, F] : V.Fields)
      if (!Known.count(Key)) {
        Error = std::string("unknown ") + What + " field '" + Key + "'";
        return false;
      }
    return true;
  }

private:
  bool field(const char *Name,
             const std::function<bool(const json::Value &)> &Apply) {
    if (!Ok)
      return false;
    Known.insert(Name);
    if (!V.has(Name))
      return true;
    Ok = Apply(V[Name]);
    return Ok;
  }

  bool fail(const char *Name, const std::string &Expected) {
    Error = "field '" + std::string(Name) + "' must be " + Expected;
    return false;
  }

  const json::Value &V;
  std::string &Error;
  std::set<std::string> Known;
  bool Ok = true;
};

bool checkVersion(const json::Value &V, std::string &Error) {
  if (!V.isObject()) {
    Error = "expected a JSON object";
    return false;
  }
  if (!V.has("version")) {
    Error = "missing 'version'";
    return false;
  }
  const json::Value &Ver = V["version"];
  if (!Ver.isNumber() || Ver.Num != ProtocolVersion) {
    Error = "unsupported protocol version (this build speaks version " +
            std::to_string(ProtocolVersion) + ")";
    return false;
  }
  return true;
}

} // namespace

bool mix::service::decodeRequest(const json::Value &V, AnalysisRequest &Out,
                                 std::string &Error) {
  if (!checkVersion(V, Error))
    return false;
  Out = AnalysisRequest();

  Decoder D(V, Error);
  int Version = ProtocolVersion;
  D.num("version", Version);

  if (!V.has("tool")) {
    Error = "missing 'tool'";
    return false;
  }
  D.keyword("tool", {{"mixcheck", [&] { Out.ToolKind = Tool::MixCheck; }},
                     {"mixy", [&] { Out.ToolKind = Tool::Mixy; }}});

  D.raw("source", [&](const json::Value &F) {
    if (!F.isString()) {
      Error = "field 'source' must be a string";
      return false;
    }
    Out.Source = F.Str;
    Out.HasSource = true;
    return true;
  });
  D.str("corpus", Out.Corpus);
  D.str("path", Out.Path);
  D.str("input_name", Out.InputName);

  D.keyword("format", {{"text", [&] { Out.OutputFormat = Format::Text; }},
                       {"json", [&] { Out.OutputFormat = Format::Json; }},
                       {"sarif", [&] { Out.OutputFormat = Format::Sarif; }}});
  D.boolean("explain", Out.Explain);
  D.str("solver", Out.Solver.Backend);
  D.boolean("trace", Out.Trace);
  D.str("cache_dir", Out.CacheDir);
  D.boolean("incremental", Out.Incremental);

  D.keyword("mode", {{"typed", [&] { Out.Symbolic = false; }},
                     {"symbolic", [&] { Out.Symbolic = true; }}});
  D.boolean("auto_place", Out.AutoPlace);
  D.boolean("print_program", Out.PrintProgram);
  D.keyword("strategy",
            {{"fork", [&] { Out.Strategy = SymExecOptions::Strategy::Fork; }},
             {"defer",
              [&] { Out.Strategy = SymExecOptions::Strategy::Defer; }}});
  D.keyword(
      "havoc",
      {{"full", [&] { Out.Havoc = SymExecOptions::HavocPolicy::FullMemory; }},
       {"effects",
        [&] { Out.Havoc = SymExecOptions::HavocPolicy::WriteEffects; }}});
  D.boolean("precise_deref", Out.PreciseDeref);
  D.boolean("assume_complete", Out.AssumeComplete);
  D.keyword("explore",
            {{"all", [&] { Out.Explore = MixOptions::Exploration::AllPaths; }},
             {"concolic",
              [&] { Out.Explore = MixOptions::Exploration::Concolic; }}});
  D.raw("vars", [&](const json::Value &F) {
    if (!F.isArray()) {
      Error = "field 'vars' must be an array";
      return false;
    }
    for (size_t I = 0; I != F.size(); ++I) {
      const json::Value &E = F[I];
      if (!E.isObject() || !E["name"].isString() || !E["type"].isString()) {
        Error = "field 'vars' entries must be {\"name\", \"type\"} objects";
        return false;
      }
      Out.Vars.emplace_back(E["name"].Str, E["type"].Str);
    }
    return true;
  });

  D.boolean("baseline", Out.Baseline);
  D.raw("entry", [&](const json::Value &F) {
    if (!F.isString() || F.Str.empty()) {
      Error = "field 'entry' must be a non-empty string";
      return false;
    }
    Out.Entry = F.Str;
    return true;
  });
  D.keyword("start", {{"typed", [&] { Out.StartSymbolic = false; }},
                      {"symbolic", [&] { Out.StartSymbolic = true; }}});
  D.boolean("no_cache", Out.NoCache);
  D.boolean("no_alias_restore", Out.NoAliasRestore);
  D.boolean("warn_derefs", Out.WarnDerefs);

  return D.finish("request");
}

bool mix::service::decodeRequest(const std::string &Text, AnalysisRequest &Out,
                                 std::string &Error) {
  json::Value V;
  if (!json::parseDocument(Text, V, &Error))
    return false;
  return decodeRequest(V, Out, Error);
}

bool mix::service::decodeResponse(const json::Value &V, AnalysisResponse &Out,
                                  std::string &Error) {
  if (!checkVersion(V, Error))
    return false;
  Out = AnalysisResponse();

  Decoder D(V, Error);
  int Version = ProtocolVersion;
  D.num("version", Version);
  D.num("exit", Out.Exit);
  D.str("payload", Out.Payload);
  D.str("error_text", Out.ErrorText);
  D.num("warnings", Out.Warnings);
  D.num("errors", Out.Errors);
  D.boolean("accepted", Out.Accepted);
  D.str("result_type", Out.ResultType);
  D.str("auto_place_note", Out.AutoPlaceNote);
  D.str("printed_program", Out.PrintedProgram);
  D.str("sym_cache_stats", Out.SymCacheStats);
  D.str("typed_cache_stats", Out.TypedCacheStats);

  D.raw("diagnostics", [&](const json::Value &F) {
    if (!F.isArray()) {
      Error = "field 'diagnostics' must be an array";
      return false;
    }
    for (size_t I = 0; I != F.size(); ++I) {
      const json::Value &E = F[I];
      DiagnosticSummary S;
      if (!E.isObject() || !E["id"].isString() || !E["severity"].isString() ||
          !toInteger(E["line"], S.Line) || !toInteger(E["column"], S.Column) ||
          !E["message"].isString()) {
        Error = "field 'diagnostics' entries are malformed";
        return false;
      }
      S.Id = E["id"].Str;
      S.Severity = E["severity"].Str;
      S.Message = E["message"].Str;
      Out.Diagnostics.push_back(std::move(S));
    }
    return true;
  });

  D.raw("metrics", [&](const json::Value &F) {
    if (!F.isObject()) {
      Error = "field 'metrics' must be an object";
      return false;
    }
    for (const auto &[Name, MV] : F.Fields) {
      uint64_t N;
      if (!toInteger(MV, N)) {
        Error = "field 'metrics' values must be numbers";
        return false;
      }
      Out.Metrics.emplace_back(Name, N);
    }
    return true;
  });

  D.str("request_id", Out.RequestId);
  D.num("total_us", Out.TotalUs);

  D.raw("phases", [&](const json::Value &F) {
    if (!F.isObject()) {
      Error = "field 'phases' must be an object";
      return false;
    }
    for (const auto &[Name, PV] : F.Fields) {
      unsigned I = 0;
      while (I != obs::NumPhases && Name != obs::phaseName((obs::Phase)I))
        ++I;
      if (I == obs::NumPhases) {
        Error = "field 'phases' has unknown phase '" + Name + "'";
        return false;
      }
      if (!toInteger(PV, Out.PhaseUs[I])) {
        Error = "field 'phases' values must be non-negative integers";
        return false;
      }
    }
    return true;
  });

  D.raw("spans", [&](const json::Value &F) {
    if (!F.isArray()) {
      Error = "field 'spans' must be an array";
      return false;
    }
    for (size_t I = 0; I != F.size(); ++I) {
      const json::Value &E = F[I];
      obs::TraceEvent Ev;
      if (!E.isObject() || !E["name"].isString() || !E["cat"].isString() ||
          !toInteger(E["ts"], Ev.Ts) ||
          (E.has("dur") && !toInteger(E["dur"], Ev.Dur)) ||
          (E.has("tid") && !toInteger(E["tid"], Ev.Tid))) {
        Error = "field 'spans' entries are malformed";
        return false;
      }
      Ev.Name = E["name"].Str;
      Ev.Cat = E["cat"].Str;
      if (E.has("ph")) {
        const json::Value &P = E["ph"];
        if (!P.isString() || P.Str.size() != 1 ||
            (P.Str[0] != 'X' && P.Str[0] != 'i' && P.Str[0] != 'M')) {
          Error = "field 'spans' entries have a malformed 'ph'";
          return false;
        }
        Ev.Ph = (obs::TracePhase)P.Str[0];
      }
      Out.Spans.push_back(std::move(Ev));
    }
    return true;
  });

  D.boolean("from_cache", Out.FromCache);
  D.boolean("deduped", Out.Deduped);

  return D.finish("response");
}

bool mix::service::decodeResponse(const std::string &Text,
                                  AnalysisResponse &Out, std::string &Error) {
  json::Value V;
  if (!json::parseDocument(Text, V, &Error))
    return false;
  return decodeResponse(V, Out, Error);
}

// === JSON-RPC envelopes ======================================================

std::string mix::service::encodeRpcId(const json::Value &Id) {
  if (Id.isString())
    return "\"" + jsonEscape(Id.Str) + "\"";
  if (Id.isNumber()) {
    // Ids are integral in practice; render those a double holds exactly
    // without a trailing ".000000". Any other number echoes in a form that
    // parses back to the same double, so the client can match the reply.
    if (Id.Num == std::floor(Id.Num) && std::fabs(Id.Num) <= 0x1p53)
      return std::to_string((long long)Id.Num);
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%.17g", Id.Num);
    return Buf;
  }
  return "null";
}

std::string mix::service::rpcResult(const std::string &Id,
                                    const std::string &ResultJson) {
  return "{\"jsonrpc\": \"2.0\", \"id\": " + Id + ", \"result\": " +
         ResultJson + "}";
}

std::string mix::service::rpcError(const std::string &Id, int Code,
                                   const std::string &Message) {
  return "{\"jsonrpc\": \"2.0\", \"id\": " + Id + ", \"error\": {\"code\": " +
         std::to_string(Code) + ", \"message\": \"" + jsonEscape(Message) +
         "\"}}";
}

std::string mix::service::rpcNotification(const std::string &Method,
                                          const std::string &ParamsJson) {
  return "{\"jsonrpc\": \"2.0\", \"method\": \"" + jsonEscape(Method) +
         "\", \"params\": " + ParamsJson + "}";
}
