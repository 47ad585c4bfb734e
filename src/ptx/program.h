/**
 * @file
 * Thread programs and whole-test programs.
 */

#ifndef GPULITMUS_PTX_PROGRAM_H
#define GPULITMUS_PTX_PROGRAM_H

#include <map>
#include <string>
#include <vector>

#include "ptx/instruction.h"

namespace gpulitmus::ptx {

/**
 * The straight-line (plus labels/branches) instruction sequence one
 * thread executes.
 */
struct ThreadProgram
{
    std::vector<Instruction> instrs;
    std::map<std::string, int> labels; ///< label -> instruction index

    /** Append an instruction; returns its index. */
    int append(Instruction instr);

    /** Bind a label to the next appended instruction. At most one
     * label per instruction (fatal otherwise): the printers render
     * labels as a single "name:" prefix, so a second binding could
     * not survive a print/reparse round trip. */
    void label(const std::string &name);

    /** Resolve a label or panic. */
    int labelTarget(const std::string &name) const;

    /** Multi-line canonical text. */
    std::string str() const;

    bool operator==(const ThreadProgram &other) const = default;
};

/** All threads of a litmus test. */
struct Program
{
    std::vector<ThreadProgram> threads;

    int numThreads() const { return static_cast<int>(threads.size()); }

    /** Total instruction count across threads. */
    int numInstructions() const;

    /** Side-by-side columns, litmus style. */
    std::string str() const;

    bool operator==(const Program &other) const = default;
};

} // namespace gpulitmus::ptx

#endif // GPULITMUS_PTX_PROGRAM_H
