from __future__ import annotations

import dataclasses
import difflib
import hashlib
import re

import pytest

from conftest import make_instance
from rexgot.model import MissingStageInput, Utterance
from rexgot.prompts import (
    EXCLUSION_HEADER,
    OMITTED_MARKER,
    PromptKind,
    estimate_tokens,
    render_prompt,
    template_version,
)

A1 = "Options C and D are unreasonable because the context rules them out."
INSTRUCTION = "\n\nGiven the context"


def context_of(prompt):
    """The context part of a prompt: everything before its instruction."""
    return prompt.rsplit(INSTRUCTION, 1)[0]


def test_stage_t_has_five_lettered_option_lines(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.STANDARD)
    option_lines = [line for line in prompt.splitlines() if re.match(r"[A-Z]\. ", line)]
    assert option_lines == [
        f"{letter}. {text}" for letter, text in zip("ABCDE", bob_movie_instance.options)
    ]


def test_stage_t1_contains_exclusion_segment(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.STEP2_VERDICT, a1=A1, option_index=0)
    assert context_of(prompt).endswith(f"\n\n{EXCLUSION_HEADER}\n{A1}")
    assert EXCLUSION_HEADER not in render_prompt(bob_movie_instance, PromptKind.STANDARD)


def test_stage_t2_without_a2_raises(bob_movie_instance):
    with pytest.raises(MissingStageInput):
        render_prompt(bob_movie_instance, PromptKind.STEP3_COMBINE, a1="some exclusion")


def test_stage_t1_without_a1_raises(bob_movie_instance):
    with pytest.raises(MissingStageInput):
        render_prompt(bob_movie_instance, PromptKind.STEP2_VERDICT, option_index=0)
    with pytest.raises(MissingStageInput):
        render_prompt(bob_movie_instance, PromptKind.STEP3_COMBINE, a2={0: "v"})


def test_bad_option_index_raises(bob_movie_instance):
    for bad in (None, -1, bob_movie_instance.m):
        with pytest.raises(ValueError):
            render_prompt(bob_movie_instance, PromptKind.STEP2_VERDICT, a1=A1, option_index=bad)


def test_dialogue_turns_numbered_with_speakers(bob_movie_instance):
    dialogue = context_of(render_prompt(bob_movie_instance, PromptKind.STANDARD)).split("\n\n")[0]
    lines = dialogue.splitlines()
    assert lines[0].startswith("1. Alice: ")
    assert lines[1].startswith("2. Bob: ")
    assert len(lines) == 4


def test_target_line_quotes_target(bob_movie_instance):
    sections = context_of(render_prompt(bob_movie_instance, PromptKind.STANDARD)).split("\n\n")
    assert sections[1] == f'Target: "{bob_movie_instance.target.text}"'


def test_standard_render_ends_with_instruction(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.STANDARD)
    assert prompt.endswith(INSTRUCTION + ", which options are correct?")
    assert prompt.startswith("1. Alice: ")


def test_cot_render_mentions_step_by_step(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.VANILLA_COT)
    assert "let's think step-by-step" in prompt
    assert prompt.endswith("which options are correct and why?")


def test_step1_render_asks_unreasonable_and_why(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.STEP1_EXCLUSION)
    assert "are unreasonable and why?" in prompt
    assert f'"{bob_movie_instance.target.text}"' in prompt
    assert "Excluded:" in prompt


def test_step2_render_substitutes_option_clause(bob_movie_instance):
    prompt = render_prompt(
        bob_movie_instance, PromptKind.STEP2_VERDICT, a1="exclusion text", option_index=2
    )
    expected = f"if the answer is C. {bob_movie_instance.options[2]}, is it reasonable and why?"
    assert expected in prompt


def test_step2_renders_differ_only_in_option_clause(bob_movie_instance):
    one, two = (
        render_prompt(bob_movie_instance, PromptKind.STEP2_VERDICT, a1="exclusion text",
                      option_index=i)
        for i in (0, 1)
    )
    changes = [
        line
        for line in difflib.ndiff(one.splitlines(), two.splitlines())
        if line.startswith(("-", "+"))
    ]
    assert len(changes) == 2
    assert "if the answer is A." in changes[0]
    assert "if the answer is B." in changes[1]


def test_step2_quotes_option_text_verbatim():
    # Option texts that contain a line break, or a line that reads like the
    # next option, are quoted as they are, and the options stay m in number.
    base = make_instance(m=3)
    instance = dataclasses.replace(base, options=("first\nB. injected", "a\r\nb", "second\nD. phantom"))
    for i, text in enumerate(instance.options):
        prompt = render_prompt(instance, PromptKind.STEP2_VERDICT, a1=A1, option_index=i)
        assert f"if the answer is {'ABC'[i]}. {text}, is it reasonable and why?" in prompt
    forward = render_prompt(instance, PromptKind.FORWARD_PICK)
    assert "which single option among A, B, C is" in forward
    assert "among none" in render_prompt(instance, PromptKind.FORWARD_PICK, taken=[0, 1, 2])


def test_render_is_pure(bob_movie_instance):
    for kind in PromptKind:
        kwargs = {"a1": A1, "a2": {i: f"v{i}" for i in range(5)}, "option_index": 1,
                  "taken": [2]}
        assert render_prompt(bob_movie_instance, kind, **kwargs) == render_prompt(
            bob_movie_instance, kind, **kwargs
        )


def test_every_option_text_appears_exactly_once():
    instance = make_instance(m=5, option_prefix="distinct marker")
    prompt = render_prompt(instance, PromptKind.STANDARD)
    for text in instance.options:
        assert prompt.count(text) == 1


def test_forward_prompt_lists_remaining_options(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.FORWARD_PICK, taken=[0, 2])
    assert "Already selected: A, C." in prompt
    assert "among B, D, E" in prompt
    assert "Pick: <letter>" in prompt
    assert "More: yes" in prompt
    assert "Already" not in render_prompt(bob_movie_instance, PromptKind.FORWARD_PICK)


def test_backward_prompt_lists_removed_options(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.BACKWARD_PICK, taken=[3])
    assert "Already removed: D." in prompt
    assert "among A, B, C, E" in prompt
    assert "Remove: <letter>" in prompt


def test_budget_drops_earliest_turns_never_target():
    instance = make_instance(m=3, n_turns=8, target_index=5)
    unbounded = render_prompt(instance, PromptKind.STANDARD)
    tight = render_prompt(instance, PromptKind.STANDARD, max_prompt_tokens=1)
    assert OMITTED_MARKER in tight
    assert instance.target.text in tight
    assert len(tight) < len(unbounded)
    # Turns after the target survive even under an impossible budget.
    assert f"6. B: {instance.dialogue[5].text}" in tight


def test_budget_large_enough_keeps_everything():
    instance = make_instance(m=3, n_turns=4)
    prompt = render_prompt(
        instance, PromptKind.STANDARD, max_prompt_tokens=estimate_tokens("x" * 100000)
    )
    assert OMITTED_MARKER not in prompt


def test_template_version_is_pinned():
    assert template_version() == "1"


def test_template_bytes_pinned():
    # The shipped instruction templates are versioned resources; any edit
    # must bump the VERSION file and these pins together.
    from importlib import resources

    standard = (resources.files("rexgot") / "templates" / "standard.txt").read_bytes()
    assert standard == b"{context}\n\nGiven the context, which options are correct?\n"
    step1 = (resources.files("rexgot") / "templates" / "step1_exclusion.txt").read_bytes()
    assert step1 == (
        b"{context}\n\nGiven the context, based on common sense, which options of "
        b'"{target}" are unreasonable and why?\nEnd with a single line '
        b'"Excluded: <letters>", or "Excluded: none" if every option is plausible.\n'
    )


# --- golden prompt bytes -------------------------------------------------------

# Stage inputs for the 12-turn instance: multi-line texts, a2 keys given out
# of order, and two keys outside 0..m-1 that the renderer must drop.
_LONG_A1 = "Option B is unreasonable: nobody mentions it.\nExcluded: B"
_LONG_A2 = {
    4: "Fits the last turns.\nVerdict: reasonable",
    0: "Nothing supports it.\nVerdict: unreasonable",
    2: "Plausible.\nVerdict: reasonable",
    1: "Ruled out above.\nVerdict: unreasonable",
    3: "Possible but weak.\nVerdict: reasonable",
    7: "out of range",
    -1: "negative index",
}


def _long_instance():
    """Twelve turns, the first one short, target at turn 10."""
    base = make_instance(instance_id="long-12", m=5, n_turns=12, target_index=9)
    return dataclasses.replace(base, dialogue=(Utterance("A", "ok"),) + base.dialogue[1:])


def _golden_inputs(bob):
    from conftest import BOB_EXCLUSION_TEXT, BOB_VERDICT_TEXTS

    stage_inputs = {
        "bob": (bob, BOB_EXCLUSION_TEXT, BOB_VERDICT_TEXTS, 2, [0, 2], [3]),
        "long12": (_long_instance(), _LONG_A1, _LONG_A2, 4, [1, 4, 1], []),
    }
    for name, (instance, a1, a2, option_index, forward, backward) in stage_inputs.items():
        per_kind = {
            PromptKind.STANDARD: {},
            PromptKind.VANILLA_COT: {},
            PromptKind.STEP1_EXCLUSION: {},
            PromptKind.STEP2_VERDICT: {"a1": a1, "option_index": option_index},
            PromptKind.STEP3_COMBINE: {"a1": a1, "a2": a2},
            PromptKind.FORWARD_PICK: {"taken": forward},
            PromptKind.BACKWARD_PICK: {"taken": backward},
        }
        for kind, kwargs in per_kind.items():
            full = estimate_tokens(render_prompt(instance, kind, **kwargs))
            # "skip2": on long12 dropping the short first turn alone lengthens
            # the prompt (the omission marker is longer than the turn), so
            # the first omit count that fits is two.
            budgets = {"none": None, "impossible": 1, "mid": full - 25, "skip2": full - 3}
            for label, budget in budgets.items():
                prompt = render_prompt(instance, kind, max_prompt_tokens=budget, **kwargs)
                yield f"{name}/{kind.value}/{label}", prompt


GOLDEN_PROMPT_SHA256 = {
    "bob/standard/none": "e05bc9c265ca66b2fa95de0b29941531616a27368967c13b797a4528cbebfa1f",
    "bob/standard/impossible": "be84c908bab7432464921629ed42426ae113e74ef56eea3d310c4a75e5087e6b",
    "bob/standard/mid": "be84c908bab7432464921629ed42426ae113e74ef56eea3d310c4a75e5087e6b",
    "bob/standard/skip2": "be84c908bab7432464921629ed42426ae113e74ef56eea3d310c4a75e5087e6b",
    "bob/vanilla_cot/none": "5ec2c3575cb9eea1bf5ba8a1d01e2d2e37563c19204e70ec587bb3805596f686",
    "bob/vanilla_cot/impossible": "2fe1a92dd55dbdc6860b04db7d6b5e0ffb969efa24a30208702b66f87d15f2cf",
    "bob/vanilla_cot/mid": "2fe1a92dd55dbdc6860b04db7d6b5e0ffb969efa24a30208702b66f87d15f2cf",
    "bob/vanilla_cot/skip2": "2fe1a92dd55dbdc6860b04db7d6b5e0ffb969efa24a30208702b66f87d15f2cf",
    "bob/step1_exclusion/none": "b5ac5065f63d7721bfe329d658a85859847419039ba8133abe2ba5143f978a66",
    "bob/step1_exclusion/impossible": "9e8af4b7d38e63c453ac398f397173ed0fa925872da57b00516a2e6731b1f726",
    "bob/step1_exclusion/mid": "9e8af4b7d38e63c453ac398f397173ed0fa925872da57b00516a2e6731b1f726",
    "bob/step1_exclusion/skip2": "9e8af4b7d38e63c453ac398f397173ed0fa925872da57b00516a2e6731b1f726",
    "bob/step2_verdict/none": "e4e3498bf2604f256c9712c6792efe2b9852744c212cf20490b57d6f5de7ca20",
    "bob/step2_verdict/impossible": "846b5600964d677966913b15a8a44bbbc80d7379a86022803fa588221639d50e",
    "bob/step2_verdict/mid": "846b5600964d677966913b15a8a44bbbc80d7379a86022803fa588221639d50e",
    "bob/step2_verdict/skip2": "846b5600964d677966913b15a8a44bbbc80d7379a86022803fa588221639d50e",
    "bob/step3_combine/none": "f51b52bbe2696e6650fa412828c04250fb0c50b5f24c270c547636bcbd075551",
    "bob/step3_combine/impossible": "ae63673337a597f6b62f7aa22634a877cb02e362dce1b6e11b3a6e684b168856",
    "bob/step3_combine/mid": "ae63673337a597f6b62f7aa22634a877cb02e362dce1b6e11b3a6e684b168856",
    "bob/step3_combine/skip2": "ae63673337a597f6b62f7aa22634a877cb02e362dce1b6e11b3a6e684b168856",
    "bob/forward_pick/none": "4a49a116e23dfb4308a7ba786958e0594de2d32a4722e18a2fea3eb4b1f1d6ab",
    "bob/forward_pick/impossible": "6a1ba7247162562b97834c6b8317381e9b787ce50da316fe0fb6798b718769e8",
    "bob/forward_pick/mid": "6a1ba7247162562b97834c6b8317381e9b787ce50da316fe0fb6798b718769e8",
    "bob/forward_pick/skip2": "6a1ba7247162562b97834c6b8317381e9b787ce50da316fe0fb6798b718769e8",
    "bob/backward_pick/none": "6511fcc2f8c922628718bf1404f3d2432425060f156d0300cee8d9d1b19b3998",
    "bob/backward_pick/impossible": "475f0058a9f83eeb05d91424d3359f0732ca09ddd6a2b043bb735416ea3dd05f",
    "bob/backward_pick/mid": "475f0058a9f83eeb05d91424d3359f0732ca09ddd6a2b043bb735416ea3dd05f",
    "bob/backward_pick/skip2": "475f0058a9f83eeb05d91424d3359f0732ca09ddd6a2b043bb735416ea3dd05f",
    "long12/standard/none": "8e150639857ad97f37be9d73169b990debfaaff42e25860b293c87ff8fd025dc",
    "long12/standard/impossible": "b3e4fc1dbe1f71a6bf152f150d4fd7792ace111b8eb635ee70c18201711aee73",
    "long12/standard/mid": "339e386bcc3c4fb9aa4a96818d35b587c16f4d892f0365626b3f31b73b810ae2",
    "long12/standard/skip2": "3403f7764cf064d2fa7bf4f00a35423dd9fb83fb33494ae173f958010ac243c3",
    "long12/vanilla_cot/none": "0b5b3ce22e9e0bb88512fc20d29d85ce6b27a114d71305077fe52cfb60102c7b",
    "long12/vanilla_cot/impossible": "2903c0d7dc001559d7e6085c85b1ecaa929563d52eff3df87aea5c39def7f420",
    "long12/vanilla_cot/mid": "4970713433b8978124eebcdcf85b4609efaf5bc5b508de9cd229170de57f550f",
    "long12/vanilla_cot/skip2": "fffec97f68f700d330b540270a2a6baf4e113f79006b1b7989a779e5a1c9afb4",
    "long12/step1_exclusion/none": "b64b744c56510c08689452bd2e9e6169cd7c4ffffe3ee0343c0b0661fbcba546",
    "long12/step1_exclusion/impossible": "662a700a6118cd14140382f47062ee0ef7131caa3999516762896b11d06f3ce2",
    "long12/step1_exclusion/mid": "7dac0274f216496240f442381c492f64ddabf98f1c4f3a7409c698f7206b1963",
    "long12/step1_exclusion/skip2": "aa1a937c70631879f61dc5742339b82ab797bc241050ec7b70f67183c77d5576",
    "long12/step2_verdict/none": "f9bc4c9e3c331d5498ca1f4d7eaa3b2c78b9ceadfc0a9b00350af8e49ccf2642",
    "long12/step2_verdict/impossible": "05af916f372f68717a28c6402e7594cc33976b5c1ca824db11dfdb6783f1cd4c",
    "long12/step2_verdict/mid": "6441666574f268a557bb31a2e8264fe7d3ae6b173823aa1fd9115424ae8eabe9",
    "long12/step2_verdict/skip2": "fd385b8667ffcc8db2c03a2ed75f387da99753b3e6e3e768f1cb9bd98187ec7b",
    "long12/step3_combine/none": "cd726f61380a92f8cc463983e246efbf80b760dd56dfc672e453a7e102d2024a",
    "long12/step3_combine/impossible": "71e686ffa3360a91653d2a6a805658194d892d80a1e44d256bf5c1d1f9ca5537",
    "long12/step3_combine/mid": "b68502d50de6345837fecc96e7ec64fa52ad55fe9dbf9e16cefe507693a918d9",
    "long12/step3_combine/skip2": "53148c8114deea6edc4a44f2a80b5fcbf56dd60d6f901cf6d4f3665f4ff7ebb0",
    "long12/forward_pick/none": "ef7b64b0318bf6e0b486e2e6a98d2bc7d8a83e4d8092a1c94afe7d5d7c57e56f",
    "long12/forward_pick/impossible": "d4a55a616b7e49fbe2ffc2b0cd839e8ac6cda98dded6a176aed359e5267a4d0a",
    "long12/forward_pick/mid": "f07cf7ed137d9767ed8b1bc9baab1d59befdaea9721ebcae2e00adb8624447e7",
    "long12/forward_pick/skip2": "43176dafa5cd9d515cf9953c691614d6be79bd355adfe09bb9dff799e05cf853",
    "long12/backward_pick/none": "f3992e5989915ee42f21a4cd0a47c4df97c57716d846e7751906f782e2a49d46",
    "long12/backward_pick/impossible": "ec4cc50958470995d4d9c4906f252e02b3ec4fd5ae1a73cbbfd4cf12c76e1ac7",
    "long12/backward_pick/mid": "729d61e8a61e7dc9ef5b9751790d73c4b07ff83fcd5fcdd18956ee5e312362ab",
    "long12/backward_pick/skip2": "f35b7c2c15d97abf0dca7a5cb98d55d755d2c984ec789d7aa351b887b809a18d",
}


def test_golden_prompt_bytes(bob_movie_instance):
    digests = {
        case: hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        for case, prompt in _golden_inputs(bob_movie_instance)
    }
    assert digests == GOLDEN_PROMPT_SHA256


def test_budget_keeps_first_omit_count_that_fits():
    instance = _long_instance()
    full = render_prompt(instance, PromptKind.STANDARD)
    trimmed = render_prompt(
        instance, PromptKind.STANDARD, max_prompt_tokens=estimate_tokens(full) - 3
    )
    assert trimmed.startswith(OMITTED_MARKER + "\n3. A: turn number 2 content\n")
    assert not any(line.startswith(("1. ", "2. ")) for line in trimmed.splitlines())
