#include "ir/program.hh"

#include <iomanip>
#include <sstream>

namespace cassandra::ir {

std::vector<uint8_t>
Program::cryptoPcTable() const
{
    std::vector<uint8_t> table(insts.size());
    for (size_t idx = 0; idx < table.size(); idx++)
        table[idx] = isCryptoPc(pcOf(idx)) ? 1 : 0;
    return table;
}

std::string
Program::functionAt(uint64_t pc) const
{
    for (const auto &f : functions) {
        if (pc >= f.entry && pc < f.end)
            return f.name;
    }
    return "?";
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    // Invert the label map for annotation.
    std::map<uint64_t, std::vector<std::string>> by_pc;
    for (const auto &[name, pc] : labels)
        by_pc[pc].push_back(name);

    for (size_t i = 0; i < insts.size(); i++) {
        uint64_t pc = pcOf(i);
        auto it = by_pc.find(pc);
        if (it != by_pc.end()) {
            for (const auto &name : it->second)
                os << name << ":\n";
        }
        os << "  0x" << std::hex << std::setw(6) << std::setfill('0') << pc
           << std::dec << std::setfill(' ') << "  "
           << (isCryptoPc(pc) ? "[k] " : "    ") << insts[i].toString()
           << "\n";
    }
    return os.str();
}

} // namespace cassandra::ir
