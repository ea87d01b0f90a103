"""The atomlen commands of README.md, pinned byte for byte: each line that
starts with "atomlen " runs through cli.main as a shell would split it, in
text and --json form, and its stdout SHA-256 and exit code must match."""
import hashlib
import pathlib
import shlex

import pytest

from atomlen import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# command: (text SHA-256, text exit code, --json SHA-256, --json exit code)
PINNED = {
    'atomlen entropy --n 2 --window 3,0':
        ('7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d', 0,
         '9bfb0f44b0af90b1dcffae71a30bffaf59e8559f56abc436be760c046ae6cbdb', 0),
    'atomlen core --npartition "3,1;2,1" --charges 0,0 --n 3':
        ('1f3d86baf8eb1c157cff08f2b7ae85e3073810b24004e6c6517a24648dc34af8', 0,
         '05ff99a914f6d39a7420403359691c74614df24743dbafca7a7714482008c3bb', 0),
    'atomlen hall --mod 4 --d 3,0,2,3':
        ('51eef6d63b76475555548ca0eddd6fcff5230381ebad40a97649eb04f5167a02', 0,
         '7bcfb0503082b9ad7878d9b945289f3c7a2703732c09b88f7327f2b23c2178ba', 0),
    'atomlen scan --form Q-delta --n 5 --max-k 200 --radius 30':
        ('a46e78c6e4a08c4c4f3c7ec39cf4e2d3cef2dbd0f987695a4af42844edb41314', 0,
         '9d7df3fde06eb50bffa83234b5e2306b42e92e3046ba464d08177ecc79c4cf0c', 0),
    'atomlen scan --form q-free  --n 4 --max-k 30  --radius 12':
        ('1d75ed294caae41e28f511b291af93988754e773a483c937383f77bd264a4b83', 0,
         'd5ef6a3d15d144e016c58a1defc7987abc159b7e1ec200c031d02dbaf73fdb65', 0),
    'atomlen scan --form go      --n 4 --max-k 150 --radius 25':
        ('17ffb66eff8b6b360e408783268448e055e35f1b458c6b5ef7915bdb9d52d485', 0,
         '738893e580f8e0616a8985af37932abb4c8bb929a60f2f905b321390f35056e1', 0),
    'atomlen scan --form trunc   --n 5 --ell 2 --max-k 100 --radius 30':
        ('4a0493fc094f5c2358d70cb03faed25a041b4af351f192e7caeb4faf1e0fcaec', 0,
         'ddd5981b1fee081455fc98952bd4ed9200bc260e24eecb5e6df74ce922c1095d', 0),
    'atomlen scan --form Ps      --n 5 --ell 3 --s 2,2,4 --max-k 50 --radius 20':
        ('b328c7b9ae29a5c459a1104c1c8db56866d36431bed466e8beae8b5a1724c7f7', 0,
         '76ed9d81cbecf67cd1c62828eac62420db91cac3e5571cdc3ac67941a72a87d6', 0),
    'atomlen scan --form refined-go --n 5 --max-k 150 --radius 25':
        ('f286c6506a03a78e01afecee8399be0b9886d1a3fa95024ef3e4840c3bc6ee02', 0,
         '3916db199d57676ba76d937d22106d178259877fe70ffa2b7f6c47f001cde279', 0),
    'atomlen scan --form deltaC  --n 5 --max-k 150 --radius 15':
        ('c91fdcde6c5584b0bc29ce7a050bcd500564b18d1ae67f8549c6b8253cf6c36b', 0,
         '6d58104feee22f83e3becdc9dbfe7349cb6bd470bc36b0f4f7d8a8bc73464eb0', 0),
    'atomlen scan --form lattice --type A2even --n 4 --max-k 100 --radius 25':
        ('c8114a23ac6ba7fa994bbd48237a7dc309f78f299e8726c4297bebcc3779cc57', 0,
         'e116cce52179be3df430216cb4bd7b339549cefe7a2dd76bf198d2a50120b4f3', 0),
    'atomlen sumset --family A --n 5':
        ('677e0313fe1f7a23a6a5d086dae185ab8311c7036c7ffda44750a8eaf756beb7', 0,
         '87a0e848709d40d203aa8307fa9cb2595182e14f804cbcb36ccfcd6780a9f599', 0),
    'atomlen sumset --family C --n 2 --mod 4     # exploratory override':
        ('b80a5550a5ec30b929708607794ffc26b1b4828340f04f41394d128ae4c3ae28', 0,
         'f12777d04b8c4a4485f6def355cd85b7aad6a4bd9518c95f8e0749b764bb22e6', 0),
    'atomlen finite --type B --n 4 --ell 2 --saturate':
        ('c641b9a1d58b6199651c30c8ef98c57170ae086171b057fed060a193013c988a', 0,
         'd32e9ab0419ccd8c5435ece191091a3823d7a54b295fbe3065659b1c081732dc', 0),
    'atomlen finite --type A --n 3 --ell 3 --bound':
        ('917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469', 0,
         'ba9122a194e5668a26aabe50c995fb836ed50f2e035cbe91f4277cb0e5c0def3', 0),
    'atomlen threshold --type C1':
        ('a27974fb6c31c92348f0091cdfec5e36fe544d2078a97f0e5dbea3144a28fb03', 0,
         '8aff19bf28eb9bd40c5d6c3c1b7d65215b2bfe3ef1d5619ffc4d6573d809f630', 0),
}


def _readme_commands():
    with open(README) as f:
        return [line.strip() for line in f if line.startswith("atomlen ")]


def test_pins_cover_the_readme_commands_in_order():
    assert _readme_commands() == list(PINNED)


@pytest.mark.parametrize("form", ["text", "json"])
def test_readme_commands_are_pinned(form, capsys):
    changed = []
    for command, pins in PINNED.items():
        argv = shlex.split(command, comments=True)[1:]
        code = cli.main(argv + (["--json"] if form == "json" else []))
        out = capsys.readouterr().out
        pin = pins[:2] if form == "text" else pins[2:]
        if (hashlib.sha256(out.encode()).hexdigest(), code) != pin:
            changed.append(command)
    assert not changed, f"README commands changed: {changed}"
