#include "core/experiment_config.hh"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace cassandra::core {

// -----------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (no dependencies).
// Supports the full JSON grammar except \uXXXX surrogate pairs,
// which the config schema never needs.
// -----------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;
};

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value("");
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); i++) {
            if (text_[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        throw std::invalid_argument(
            "JSON parse error at line " + std::to_string(line) +
            ", column " + std::to_string(col) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    bool
    consume(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    /** The value at JSON path `path` (names repeated keys). */
    JsonValue
    value(const std::string &path)
    {
        char c = peek();
        switch (c) {
          case '{':
            return objectValue(path);
          case '[':
            return arrayValue(path);
          case '"':
            return stringValue();
          case 't':
          case 'f':
            return boolValue();
          case 'n':
            if (!consume("null"))
                fail("bad literal");
            return JsonValue{};
          default:
            return numberValue();
        }
    }

    JsonValue
    objectValue(const std::string &path)
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            pos_++;
            return v;
        }
        for (;;) {
            if (peek() != '"')
                fail("object keys must be strings");
            std::string key = rawString();
            const std::string at = path.empty() ? key : path + "." + key;
            for (const auto &entry : v.object) {
                if (entry.first == key)
                    fail("duplicate key " + at);
            }
            expect(':');
            v.object.emplace_back(std::move(key), value(at));
            char c = peek();
            if (c == ',') {
                pos_++;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    arrayValue(const std::string &path)
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            pos_++;
            return v;
        }
        for (;;) {
            v.array.push_back(value(
                path + "[" + std::to_string(v.array.size()) + "]"));
            char c = peek();
            if (c == ',') {
                pos_++;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    stringValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = rawString();
        return v;
    }

    std::string
    rawString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    out += e;
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; i++) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape");
                    }
                    if (code > 0x7f)
                        fail("non-ASCII \\u escapes are unsupported");
                    out += static_cast<char>(code);
                    break;
                  }
                  default:
                    fail("unknown escape");
                }
                continue;
            }
            out += c;
        }
        fail("unterminated string");
    }

    JsonValue
    boolValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        skipWs();
        if (consume("true"))
            v.boolean = true;
        else if (consume("false"))
            v.boolean = false;
        else
            fail("bad literal");
        return v;
    }

    JsonValue
    numberValue()
    {
        skipWs();
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            pos_++;
        if (pos_ == start)
            fail("expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        try {
            size_t used = 0;
            v.number = std::stod(text_.substr(start, pos_ - start), &used);
            if (used != pos_ - start)
                fail("malformed number");
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// -----------------------------------------------------------------
// Schema mapping
// -----------------------------------------------------------------

/** An error that already names its JSON path. */
struct SchemaError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

[[noreturn]] void
schemaFail(const std::string &where, const std::string &what)
{
    throw SchemaError("experiment config: " + where + ": " + what);
}

/** Run a value parser, prefixing its reason with the value's path. */
template <typename Fn>
void
atPath(const std::string &where, Fn &&fn)
{
    try {
        fn();
    } catch (const SchemaError &) {
        throw;
    } catch (const std::invalid_argument &e) {
        schemaFail(where, e.what());
    }
}

std::string
joinPath(const std::string &a, const std::string &b)
{
    return a.empty() ? b : b.empty() ? a : a + "." + b;
}

/**
 * Walk the object `v`, handing each leaf's path (relative to the
 * walk's root) and value to `leaf`. A key is a section, walked in
 * turn, when some path in `keys` lies below it. `where` is the root's
 * own path, for error messages.
 */
template <typename Leaf>
void
walkObject(const JsonValue &v, const std::string &where,
           const std::string &prefix,
           const std::vector<const char *> &keys, const Leaf &leaf)
{
    if (v.kind != JsonValue::Kind::Object)
        schemaFail(where.empty() && prefix.empty()
                       ? "top level"
                       : joinPath(where, prefix),
                   "expected an object");
    for (const auto &[key, field] : v.object) {
        const std::string path = joinPath(prefix, key);
        // Paths are spelled as nested objects, never as dotted keys.
        if (key.find('.') != std::string::npos)
            schemaFail(joinPath(where, path), "unknown key");
        const std::string below = path + ".";
        bool section = false;
        for (const char *k : keys)
            section = section ||
                std::strncmp(k, below.c_str(), below.size()) == 0;
        if (section)
            walkObject(field, where, path, keys, leaf);
        else
            leaf(path, field);
    }
}

// Value readers shared by flags and keys. They throw the bare reason;
// the caller names the key or flag.

const std::string &
text(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::String)
        throw std::invalid_argument("expected a string");
    return v.string;
}

uint64_t
count(const JsonValue &v, uint64_t max)
{
    if (v.kind != JsonValue::Kind::Number || v.number < 0 ||
        v.number != std::floor(v.number) ||
        v.number > static_cast<double>(max))
        throw std::invalid_argument("expected an integer in [0, " +
                                    std::to_string(max) + "]");
    return static_cast<uint64_t>(v.number);
}

std::vector<std::string>
names(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::Array)
        throw std::invalid_argument("expected an array of strings");
    std::vector<std::string> out;
    for (const JsonValue &item : v.array)
        out.push_back(text(item));
    return out;
}

/** Every SimParam key, for walking configs[] entries. */
const std::vector<const char *> &
simParamKeys()
{
    static const std::vector<const char *> keys = [] {
        std::vector<const char *> out;
        SimConfig cfg;
        forEachSimParam(cfg, [&](const SimParam &param, auto &) {
            out.push_back(param.key);
        });
        return out;
    }();
    return keys;
}

/** One configs[] entry: a name plus SimParam overrides. */
SimConfig
parseSimConfig(const JsonValue &v, const std::string &where)
{
    SimConfig cfg;
    walkObject(v, where, "", simParamKeys(),
               [&](const std::string &path, const JsonValue &field) {
        atPath(joinPath(where, path), [&] {
            if (path == "name") {
                cfg.name = text(field);
                return;
            }
            // A cache size may be given in KiB ("size_kb").
            const size_t kib_at = path.rfind(".size_kb");
            const bool kib = kib_at != std::string::npos &&
                kib_at + 8 == path.size();
            const std::string key =
                kib ? path.substr(0, kib_at) + ".size_bytes" : path;
            const uint64_t scale = kib ? 1024 : 1;
            bool known = false;
            forEachSimParam(cfg, [&](const SimParam &param, auto &slot) {
                if (key != param.key)
                    return;
                using Field = std::remove_reference_t<decltype(slot)>;
                slot = static_cast<Field>(
                    count(field, param.max / scale) * scale);
                known = true;
            });
            if (!known)
                throw std::invalid_argument("unknown key");
        });
    });
    return cfg;
}

/** A name-to-enum parser applied to a string value. */
template <typename T>
T
named(const JsonValue &v, T (*from_name)(const std::string &))
{
    return from_name(text(v));
}

/** Read a flag's text the way its row expects its value. */
JsonValue
flagJson(FlagValue kind, const std::string &arg)
{
    JsonValue v;
    switch (kind) {
      case FlagValue::Text:
        v.kind = JsonValue::Kind::String;
        v.string = arg;
        break;
      case FlagValue::Count:
        if (arg.empty() || arg.size() > 19 ||
            arg.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument(
                "expected a non-negative integer");
        v.kind = JsonValue::Kind::Number;
        v.number = static_cast<double>(std::stoull(arg));
        break;
      case FlagValue::List:
        v.kind = JsonValue::Kind::Array;
        for (size_t pos = 0; pos <= arg.size();) {
            size_t comma = arg.find(',', pos);
            if (comma == std::string::npos)
                comma = arg.size();
            if (comma > pos) {
                JsonValue item;
                item.kind = JsonValue::Kind::String;
                item.string = arg.substr(pos, comma - pos);
                v.array.push_back(std::move(item));
            }
            pos = comma + 1;
        }
        break;
    }
    return v;
}

using Spec = ExperimentSpec;
using Json = JsonValue;

const RunOption *
findOption(const std::string &name, const char *RunOption::*column)
{
    for (const RunOption &row : runOptions()) {
        if (row.*column && name == row.*column)
            return &row;
    }
    return nullptr;
}

} // namespace

const std::vector<RunOption> &
runOptions()
{
    static const std::vector<RunOption> table = {
        {"report.format", "--format", "F",
         "report format: table (default), json or csv", FlagValue::Text,
         [](Spec &s, const Json &v) {
             const std::string &format = text(v);
             if (format != "table" && format != "json" && format != "csv")
                 throw std::invalid_argument(
                     "expected table, json or csv");
             s.format = format;
         }},
        {"report.out", "--out", "PATH",
         "write the report to PATH instead of stdout", FlagValue::Text,
         [](Spec &s, const Json &v) { s.out = text(v); }},
        {"threads", "--threads", "N",
         "worker threads (default 0: hardware concurrency)",
         FlagValue::Count,
         [](Spec &s, const Json &v) {
             s.runner.threads = static_cast<unsigned>(count(v, 1024));
         }},
        {nullptr, "--workloads", "A,B", "run only the named workloads",
         FlagValue::List,
         [](Spec &s, const Json &v) { s.workloadFilter = names(v); }},
        {nullptr, "--suite", "S",
         "run only one suite (BearSSL, OpenSSL, PQC, Synthetic)",
         FlagValue::Text,
         [](Spec &s, const Json &v) { s.suiteFilter = text(v); }},
        {nullptr, "--config", "FILE",
         "load the sweep from a JSON config; other flags override it",
         FlagValue::Text,
         [](Spec &s, const Json &v) { s.configPath = text(v); }},
        {"trace_mode", "--trace-mode", "M",
         "trace storage: whole (default, in memory) or stream (on disk)",
         FlagValue::Text,
         [](Spec &s, const Json &v) {
             s.runner.analyze.traceMode = named(v, traceModeFromName);
         }},
        {"cache.mode", "--cache", "M",
         "cell-result store: off (default), on or readonly",
         FlagValue::Text,
         [](Spec &s, const Json &v) {
             s.runner.cacheMode = named(v, cacheModeFromName);
         }},
        {"cache.dir", "--cache-dir", "D",
         "result-store directory (default: result-cache)",
         FlagValue::Text,
         [](Spec &s, const Json &v) { s.runner.cacheDir = text(v); }},
        {"report.stats_out", "--stats-out", "F",
         "write the run's cache telemetry JSON to F",
         FlagValue::Text,
         [](Spec &s, const Json &v) { s.statsOut = text(v); }},
        {"name", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) { s.name = text(v); }},
        {"workloads", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) { s.matrix.workloads = names(v); }},
        {"suites", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) { s.suites = names(v); }},
        {"schemes", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) {
             for (const std::string &name : names(v))
                 s.matrix.schemes.push_back(uarch::schemeFromName(name));
         }},
        {"configs", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) {
             if (v.kind != JsonValue::Kind::Array)
                 throw std::invalid_argument("expected an array");
             for (size_t i = 0; i < v.array.size(); i++)
                 s.matrix.configs.push_back(parseSimConfig(
                     v.array[i], "configs[" + std::to_string(i) + "]"));
         }},
        {"artifacts.dir", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) { s.artifactDir = text(v); }},
        {"artifacts.save", nullptr, nullptr, nullptr, FlagValue::Text,
         [](Spec &s, const Json &v) {
             if (v.kind != JsonValue::Kind::Bool)
                 throw std::invalid_argument("expected a boolean");
             s.artifactSave = v.boolean;
         }},
    };
    return table;
}

ExperimentSpec
parseExperimentSpec(const std::string &json)
{
    static const std::vector<const char *> keys = [] {
        std::vector<const char *> out;
        for (const RunOption &row : runOptions()) {
            if (row.key)
                out.push_back(row.key);
        }
        return out;
    }();

    ExperimentSpec spec;
    walkObject(JsonParser(json).parse(), "", "", keys,
               [&](const std::string &path, const JsonValue &v) {
        const RunOption *row = findOption(path, &RunOption::key);
        if (!row)
            schemaFail(path, "unknown key");
        atPath(path, [&] { row->parse(spec, v); });
    });

    if (spec.matrix.workloads.empty() && spec.suites.empty())
        schemaFail("workloads",
                   "config selects no workloads (and no suites)");
    if (spec.matrix.schemes.empty())
        schemaFail("schemes", "config lists no schemes");
    return spec;
}

ExperimentSpec
loadExperimentSpec(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw std::runtime_error("cannot open experiment config " +
                                 path);
    std::ostringstream text;
    text << file.rdbuf();
    return parseExperimentSpec(text.str());
}

ExperimentSpec
parseCommandLine(const std::vector<std::string> &args,
                 bool positional_config)
{
    // (row, value) in command-line order; a null row is the
    // positional config path.
    std::vector<std::pair<const RunOption *, std::string>> given;
    bool have_positional = false;
    for (size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        if (positional_config && !have_positional &&
            arg.rfind("-", 0) != 0) {
            given.emplace_back(nullptr, arg);
            have_positional = true;
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const RunOption *row = findOption(flag, &RunOption::flag);
        if (!row)
            throw std::invalid_argument("unknown option: " + arg);
        if (eq != std::string::npos)
            given.emplace_back(row, arg.substr(eq + 1));
        else if (i + 1 < args.size())
            given.emplace_back(row, args[++i]);
        else
            throw std::invalid_argument("missing value for " + flag);
    }

    auto apply = [&](ExperimentSpec &spec) {
        for (const auto &[row, value] : given) {
            if (!row) {
                spec.configPath = value;
                continue;
            }
            try {
                row->parse(spec, flagJson(row->flagValue, value));
            } catch (const std::invalid_argument &e) {
                throw std::invalid_argument("invalid " +
                                            std::string(row->flag) + "=" +
                                            value + ": " + e.what());
            }
        }
    };
    // The flags alone name the config file; load it, then apply the
    // flags again on top of it.
    ExperimentSpec flags;
    apply(flags);
    if (flags.configPath.empty())
        return flags;
    ExperimentSpec spec;
    try {
        spec = loadExperimentSpec(flags.configPath);
    } catch (const std::exception &e) {
        throw std::invalid_argument(flags.configPath + ": " + e.what());
    }
    apply(spec);
    return spec;
}

} // namespace cassandra::core
