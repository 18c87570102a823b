#include "core/experiment_config.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cassandra::core {

namespace {

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

    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
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

    JsonValue
    value()
    {
        char c = peek();
        switch (c) {
          case '{':
            return objectValue();
          case '[':
            return arrayValue();
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
    objectValue()
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
            expect(':');
            v.object.emplace_back(std::move(key), value());
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
    arrayValue()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            pos_++;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
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

[[noreturn]] void
schemaFail(const std::string &where, const std::string &what)
{
    throw std::invalid_argument("experiment config: " + where + ": " +
                                what);
}

const JsonValue &
expectKind(const JsonValue &v, JsonValue::Kind kind,
           const std::string &where, const char *kind_name)
{
    if (v.kind != kind)
        schemaFail(where, std::string("expected ") + kind_name);
    return v;
}

std::vector<std::string>
stringList(const JsonValue &v, const std::string &where)
{
    expectKind(v, JsonValue::Kind::Array, where, "an array");
    std::vector<std::string> out;
    for (const JsonValue &item : v.array) {
        expectKind(item, JsonValue::Kind::String, where,
                   "an array of strings");
        out.push_back(item.string);
    }
    return out;
}

uint64_t
uintField(const JsonValue &v, const std::string &where, uint64_t max)
{
    expectKind(v, JsonValue::Kind::Number, where,
               "a non-negative integer");
    if (v.number < 0 || v.number != std::floor(v.number) ||
        v.number > static_cast<double>(max))
        schemaFail(where, "value out of range");
    return static_cast<uint64_t>(v.number);
}

void
applyCacheOverrides(uarch::CacheParams &cache, const JsonValue &v,
                    const std::string &where)
{
    expectKind(v, JsonValue::Kind::Object, where, "an object");
    for (const auto &[key, field] : v.object) {
        const std::string at = where + "." + key;
        if (key == "size_bytes")
            cache.sizeBytes = static_cast<uint32_t>(
                uintField(field, at, 1u << 30));
        else if (key == "size_kb")
            cache.sizeBytes = static_cast<uint32_t>(
                uintField(field, at, 1u << 20) * 1024);
        else if (key == "line_bytes")
            cache.lineBytes =
                static_cast<uint32_t>(uintField(field, at, 4096));
        else if (key == "ways")
            cache.ways =
                static_cast<uint32_t>(uintField(field, at, 1024));
        else if (key == "latency")
            cache.latency =
                static_cast<uint32_t>(uintField(field, at, 100000));
        else
            schemaFail(at, "unknown cache key");
    }
}

void
applyCoreOverrides(uarch::CoreParams &core, const JsonValue &v,
                   const std::string &where)
{
    expectKind(v, JsonValue::Kind::Object, where, "an object");
    for (const auto &[key, field] : v.object) {
        const std::string at = where + "." + key;
        auto u32 = [&](uint64_t max) {
            return static_cast<uint32_t>(uintField(field, at, max));
        };
        if (key == "fetch_width")
            core.fetchWidth = u32(64);
        else if (key == "commit_width")
            core.commitWidth = u32(64);
        else if (key == "issue_width")
            core.issueWidth = u32(64);
        else if (key == "rob_size")
            core.robSize = u32(1 << 20);
        else if (key == "iq_size")
            core.iqSize = u32(1 << 20);
        else if (key == "lq_size")
            core.lqSize = u32(1 << 20);
        else if (key == "sq_size")
            core.sqSize = u32(1 << 20);
        else if (key == "int_regs")
            core.intRegs = u32(1 << 20);
        else if (key == "frontend_depth")
            core.frontendDepth = u32(1024);
        else if (key == "decode_redirect")
            core.decodeRedirect = u32(1024);
        else if (key == "redirect_penalty")
            core.redirectPenalty = u32(1024);
        else if (key == "num_alu")
            core.numAlu = u32(64);
        else if (key == "num_mul")
            core.numMul = u32(64);
        else if (key == "num_lsu")
            core.numLsu = u32(64);
        else if (key == "alu_latency")
            core.aluLatency = u32(1024);
        else if (key == "mul_latency")
            core.mulLatency = u32(1024);
        else if (key == "store_latency")
            core.storeLatency = u32(1024);
        else if (key == "mem_latency")
            core.memLatency = u32(100000);
        else if (key == "btu_flush_period")
            core.btuFlushPeriod = uintField(field, at, ~0ull >> 1);
        else if (key == "l1i")
            applyCacheOverrides(core.l1i, field, at);
        else if (key == "l1d")
            applyCacheOverrides(core.l1d, field, at);
        else if (key == "l2")
            applyCacheOverrides(core.l2, field, at);
        else if (key == "l3")
            applyCacheOverrides(core.l3, field, at);
        else
            schemaFail(at, "unknown core key");
    }
}

void
applyBtuOverrides(btu::BtuParams &btu, const JsonValue &v,
                  const std::string &where)
{
    expectKind(v, JsonValue::Kind::Object, where, "an object");
    for (const auto &[key, field] : v.object) {
        const std::string at = where + "." + key;
        if (key == "sets")
            btu.sets = static_cast<size_t>(uintField(field, at, 1 << 20));
        else if (key == "ways")
            btu.ways = static_cast<size_t>(uintField(field, at, 1 << 20));
        else if (key == "fill_latency")
            btu.fillLatency =
                static_cast<unsigned>(uintField(field, at, 1 << 20));
        else
            schemaFail(at, "unknown btu key");
    }
}

TraceMode
parseTraceMode(const JsonValue &v, const std::string &where)
{
    expectKind(v, JsonValue::Kind::String, where, "a string");
    try {
        return traceModeFromName(v.string);
    } catch (const std::invalid_argument &e) {
        schemaFail(where, e.what());
    }
}

SimConfig
parseSimConfig(const JsonValue &v, size_t index, TraceMode sweep_mode)
{
    const std::string where = "configs[" + std::to_string(index) + "]";
    expectKind(v, JsonValue::Kind::Object, where, "an object");
    SimConfig cfg;
    cfg.traceMode = sweep_mode;
    for (const auto &[key, field] : v.object) {
        const std::string at = where + "." + key;
        if (key == "name") {
            expectKind(field, JsonValue::Kind::String, at, "a string");
            cfg.name = field.string;
        } else if (key == "core") {
            applyCoreOverrides(cfg.core, field, at);
        } else if (key == "btu") {
            applyBtuOverrides(cfg.btu, field, at);
        } else if (key == "trace_mode") {
            cfg.traceMode = parseTraceMode(field, at);
        } else {
            schemaFail(at, "unknown config key");
        }
    }
    return cfg;
}

} // namespace

ExperimentSpec
parseExperimentSpec(const std::string &json)
{
    JsonValue root = JsonParser(json).parse();
    if (root.kind != JsonValue::Kind::Object)
        schemaFail("top level", "expected an object");

    ExperimentSpec spec;
    // The sweep-level trace mode seeds every config's field, so
    // resolve it before the configs array (JSON key order must not
    // matter).
    if (const JsonValue *tm = root.get("trace_mode")) {
        spec.traceMode = parseTraceMode(*tm, "trace_mode");
        spec.traceModeSet = true;
    }
    for (const auto &[key, v] : root.object) {
        if (key == "trace_mode") {
            // handled above
        } else if (key == "name") {
            expectKind(v, JsonValue::Kind::String, key, "a string");
            spec.name = v.string;
        } else if (key == "workloads") {
            spec.matrix.workloads = stringList(v, key);
        } else if (key == "suites") {
            spec.suites = stringList(v, key);
        } else if (key == "schemes") {
            for (const std::string &name : stringList(v, key))
                spec.matrix.schemes.push_back(
                    uarch::schemeFromName(name));
        } else if (key == "configs") {
            expectKind(v, JsonValue::Kind::Array, key, "an array");
            for (size_t i = 0; i < v.array.size(); i++)
                spec.matrix.configs.push_back(
                    parseSimConfig(v.array[i], i, spec.traceMode));
        } else if (key == "threads") {
            spec.threads =
                static_cast<unsigned>(uintField(v, key, 1024));
        } else if (key == "report") {
            expectKind(v, JsonValue::Kind::Object, key, "an object");
            for (const auto &[rkey, rv] : v.object) {
                const std::string at = "report." + rkey;
                if (rkey == "format") {
                    expectKind(rv, JsonValue::Kind::String, at,
                               "a string");
                    spec.format = rv.string;
                } else if (rkey == "out") {
                    expectKind(rv, JsonValue::Kind::String, at,
                               "a string");
                    spec.out = rv.string;
                } else if (rkey == "stats_out") {
                    expectKind(rv, JsonValue::Kind::String, at,
                               "a string");
                    spec.statsOut = rv.string;
                } else {
                    schemaFail(at, "unknown report key");
                }
            }
        } else if (key == "execution") {
            expectKind(v, JsonValue::Kind::Object, key, "an object");
            for (const auto &[ekey, ev] : v.object) {
                const std::string at = "execution." + ekey;
                if (ekey == "mode") {
                    expectKind(ev, JsonValue::Kind::String, at,
                               "a string");
                    try {
                        spec.executionMode =
                            executionModeFromName(ev.string);
                    } catch (const std::invalid_argument &e) {
                        schemaFail(at, e.what());
                    }
                    spec.executionModeSet = true;
                } else if (ekey == "shards") {
                    spec.shards = static_cast<unsigned>(
                        uintField(ev, at, 1024));
                    spec.shardsSet = true;
                } else if (ekey == "worker_binary") {
                    expectKind(ev, JsonValue::Kind::String, at,
                               "a string");
                    spec.workerBinary = ev.string;
                } else if (ekey == "scheduler") {
                    expectKind(ev, JsonValue::Kind::String, at,
                               "a string");
                    try {
                        spec.scheduler =
                            shardSchedulerFromName(ev.string);
                    } catch (const std::invalid_argument &e) {
                        schemaFail(at, e.what());
                    }
                    spec.schedulerSet = true;
                } else {
                    schemaFail(at, "unknown execution key");
                }
            }
        } else if (key == "cache") {
            expectKind(v, JsonValue::Kind::Object, key, "an object");
            for (const auto &[ckey, cv] : v.object) {
                const std::string at = "cache." + ckey;
                if (ckey == "mode") {
                    expectKind(cv, JsonValue::Kind::String, at,
                               "a string");
                    try {
                        spec.cacheMode = cacheModeFromName(cv.string);
                    } catch (const std::invalid_argument &e) {
                        schemaFail(at, e.what());
                    }
                    spec.cacheModeSet = true;
                } else if (ckey == "dir") {
                    expectKind(cv, JsonValue::Kind::String, at,
                               "a string");
                    spec.cacheDir = cv.string;
                } else {
                    schemaFail(at, "unknown cache key");
                }
            }
        } else if (key == "artifacts") {
            expectKind(v, JsonValue::Kind::Object, key, "an object");
            for (const auto &[akey, av] : v.object) {
                const std::string at = "artifacts." + akey;
                if (akey == "dir") {
                    expectKind(av, JsonValue::Kind::String, at,
                               "a string");
                    spec.artifactDir = av.string;
                } else if (akey == "save") {
                    expectKind(av, JsonValue::Kind::Bool, at,
                               "a boolean");
                    spec.artifactSave = av.boolean;
                } else {
                    schemaFail(at, "unknown artifacts key");
                }
            }
        } else {
            schemaFail(key, "unknown top-level key");
        }
    }

    // A sweep-level stream request must reach the runner even without
    // an explicit configs array (the runner's implicit default config
    // would otherwise run whole-trace).
    if (spec.traceModeSet && spec.matrix.configs.empty()) {
        SimConfig cfg;
        cfg.traceMode = spec.traceMode;
        spec.matrix.configs.push_back(cfg);
    }

    if (spec.matrix.workloads.empty() && spec.suites.empty())
        schemaFail("workloads",
                   "config selects no workloads (and no suites)");
    if (spec.matrix.schemes.empty())
        schemaFail("schemes", "config lists no schemes");
    if (!spec.format.empty() && spec.format != "table" &&
        spec.format != "json" && spec.format != "csv")
        schemaFail("report.format",
                   "expected table, json or csv, got \"" + spec.format +
                       "\"");
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

} // namespace cassandra::core
